(** Partial (and, eventually, complete) modulo schedules.

    An entry assigns a node an issue cycle (in the flat, non-modulo time
    axis — stage count falls out of the maximum cycle) and an execution
    location.  The reservation table is kept in sync by
    [place]/[unplace].

    [estart]/[lstart] are the classic windows derived from the
    *scheduled* neighbours: a node may issue at cycle c only if
    [c >= cycle(p) + latency(e) - II * distance(e)] for scheduled
    predecessors p, and symmetrically for scheduled successors.

    Entries live in flat per-node int columns (no hashing on the hot
    path); reservation vectors are precompiled per (op kind, location,
    Move source bank) and probed via {!prepare_uses} /
    {!can_place_prepared} in the engine's candidate scan. *)

type entry = { cycle : int; loc : Topology.loc }

type t = {
  config : Hcrf_machine.Config.t;
  ii : int;
  lat : Latency.t;
  mrt : Mrt.t;
  nclusters : int;
  mutable e_cycle : int array;  (** id -> issue cycle; [min_int] = unscheduled *)
  mutable e_loc : int array;    (** id -> location code (-1 Global, i cluster) *)
  mutable e_bank : int array;   (** id -> def-bank index, -1 when none *)
  mutable cap : int;            (** length of the entry columns *)
  mutable nsched : int;
  bank_defs : int array;        (** bank index -> scheduled defs there *)
  ucache : Mrt.cuses option array array;
      (** block (kind, or Move source bank) -> location -> compiled
          reservation; a block is allocated on first use *)
  arena : Arena.t option;
  locs : Topology.loc array;    (** location code + 1 -> location *)
  banks : Topology.bank option array;  (** bank index -> [Some bank] *)
}

val create :
  ?arena:Arena.t -> ?lat:Latency.t -> Hcrf_machine.Config.t -> ii:int -> t

val ii : t -> int
val is_scheduled : t -> int -> bool
val entry : t -> int -> entry option

(** Raises [Invalid_argument] when not scheduled. *)
val entry_exn : t -> int -> entry

(** [cycle_of] and [loc_of] allocate nothing; both raise
    [Invalid_argument] when [v] is not scheduled. *)
val cycle_of : t -> int -> int
val loc_of : t -> int -> Topology.loc

(** Scheduled node ids, in increasing id order. *)
val scheduled_nodes : t -> int list

val num_scheduled : t -> int

(** Bank holding the value defined by scheduled node [v], if any. *)
val def_bank : t -> Hcrf_ir.Ddg.t -> int -> Topology.bank option

(** Scheduled definitions currently living in [bank] — O(1); the
    cluster-selection and down-copy heuristics' fill measure. *)
val bank_def_count : t -> Topology.bank -> int

(** Source bank for a [Move]'s reservation: the bank of its (scheduled)
    producer. *)
val move_src_bank : t -> Hcrf_ir.Ddg.t -> int -> Topology.bank option

(** The resource reservations of [v] at [loc]. *)
val uses_of :
  t -> Hcrf_ir.Ddg.t -> int -> loc:Topology.loc ->
  (Topology.resource * int) list

(** Dense index of an operation kind, [0 .. 10], for per-kind tables. *)
val kind_tag : Hcrf_ir.Op.kind -> int

(** Earliest legal issue cycle given the scheduled predecessors. *)
val estart : t -> Hcrf_ir.Ddg.t -> int -> int

(** Latest legal issue cycle given the scheduled successors; [None] when
    no successor is scheduled. *)
val lstart : t -> Hcrf_ir.Ddg.t -> int -> int option

(** Deliberate engine faults for differential testing.  [Lax_resources]
    makes {!can_place} ignore the reservation table entirely, so the
    engine builds resource-oversubscribed schedules that an independent
    {!Validate.check} must reject — the fuzzer's canary.  The flag is
    global and read-only during scheduling; set it only from tests and
    fuzzing campaigns, and reset it afterwards. *)
type fault = Lax_resources

val fault : fault option ref

(** {1 Precompiled probing}

    [prepare_uses] compiles (and caches) the reservation vector of [v]
    at [loc]; the [_prepared] variants probe/commit it without
    rebuilding the [uses] list.  The vector is only valid while the
    inputs that chose it hold — for a [Move], the producer's bank. *)

val prepare_uses :
  t -> Hcrf_ir.Ddg.t -> int -> loc:Topology.loc -> Mrt.cuses

val can_place_prepared : t -> Mrt.cuses -> cycle:int -> bool

(** Raises [Invalid_argument] when already placed. *)
val place_prepared :
  t -> Hcrf_ir.Ddg.t -> int -> Mrt.cuses -> cycle:int ->
  loc:Topology.loc -> unit

val conflicts_prepared : t -> Mrt.cuses -> cycle:int -> int list

val can_place :
  t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> loc:Topology.loc -> bool

(** Raises [Invalid_argument] when already placed. *)
val place :
  t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> loc:Topology.loc -> unit

val unplace : t -> int -> unit

(** Nodes that must be ejected to reserve [v]'s resources at [cycle]. *)
val resource_conflicts :
  t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> loc:Topology.loc -> int list

(** Scheduled neighbours whose dependence constraints are violated by
    [v] issuing at [cycle]. *)
val dependence_violations :
  t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> int list

val max_cycle : t -> int

(** Number of stages of II cycles in the kernel. *)
val stage_count : t -> int

val pp : Format.formatter -> t -> unit
