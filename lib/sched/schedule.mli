(** Modulo schedules: the product and the engine's working state.

    The product ({!t}) assigns every node an issue cycle (in the flat,
    non-modulo time axis — stage count falls out of the maximum cycle),
    an execution location and the bank its value is defined in, as flat
    per-node int columns.  It holds no reservation table: {!place}
    records a placement and reserves nothing.

    [estart]/[lstart] are the classic windows derived from the
    *scheduled* neighbours: a node may issue at cycle c only if
    [c >= cycle(p) + latency(e) - II * distance(e)] for scheduled
    predecessors p, and symmetrically for scheduled successors.

    The working state ({!Work}) is the engine's: the same columns plus
    the modulo reservation table, its occupant stacks, the precompiled
    reservation vectors and the {!Arena} buffers.  A finished attempt
    cuts an exact-size, arena-free product from it. *)

type entry = { cycle : int; loc : Topology.loc }

type t = {
  config : Hcrf_machine.Config.t;
  ii : int;
  lat : Latency.t;
  mutable e_cycle : int array;  (** id -> issue cycle; [min_int] = unscheduled *)
  mutable e_loc : int array;    (** id -> {!Topology.loc_code} *)
  mutable e_bank : int array;
      (** id -> {!Topology.bank_code} of the definition bank, -1 when none *)
  mutable cap : int;            (** live length of the entry columns *)
  bank_defs : int array;        (** bank code -> scheduled defs there *)
  locs : Topology.loc array;    (** location code + 1 -> location *)
  banks : Topology.bank option array;  (** bank code -> [Some bank] *)
}

(** An empty product. *)
val create : ?lat:Latency.t -> Hcrf_machine.Config.t -> ii:int -> t

(** A product over the given columns (cycle, location code, bank code;
    equal lengths), which it takes over: the inverse of {!columns}. *)
val of_columns :
  ?lat:Latency.t -> Hcrf_machine.Config.t -> ii:int -> cycle:int array ->
  loc:int array -> bank:int array -> t

(** Fresh copies of the (cycle, location code, bank code) columns,
    [len] cells each. *)
val columns : t -> len:int -> int array * int array * int array

val ii : t -> int
val is_scheduled : t -> int -> bool
val entry : t -> int -> entry option

(** Raises [Invalid_argument] when not scheduled. *)
val entry_exn : t -> int -> entry

(** [cycle_of] and [loc_of] allocate nothing; both raise
    [Invalid_argument] when [v] is not scheduled. *)
val cycle_of : t -> int -> int
val loc_of : t -> int -> Topology.loc

(** [v]'s location, [None] while unscheduled: the [loc_of] lookup of
    {!Lifetimes.residents}. *)
val placed_loc : t -> int -> Topology.loc option

(** Scheduled node ids, in increasing id order. *)
val scheduled_nodes : t -> int list

(** Bank holding the value defined by scheduled node [v], if any. *)
val def_bank : t -> Hcrf_ir.Ddg.t -> int -> Topology.bank option

(** Scheduled definitions currently living in [bank] — O(1); the
    cluster-selection and down-copy heuristics' fill measure. *)
val bank_def_count : t -> Topology.bank -> int

(** The bank of [v]'s first scheduled operand producer: a [Move]'s
    source bank (its reservation reads it). *)
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

(** Record [v] at ([cycle], [loc]); raises [Invalid_argument] when
    already placed. *)
val place :
  t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> loc:Topology.loc -> unit

val unplace : t -> int -> unit

(** Scheduled neighbours whose dependence constraints are violated by
    [v] issuing at [cycle]. *)
val dependence_violations :
  t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> int list

(** Number of stages of II cycles in the kernel. *)
val stage_count : t -> int

val pp : Format.formatter -> t -> unit

(** Deliberate engine faults for differential testing.  [Lax_resources]
    makes the working state's probe ({!Work.fits}) ignore the
    reservation table entirely, so the engine builds
    resource-oversubscribed schedules that an independent
    {!Validate.check} must reject — the fuzzer's canary.  The flag is
    global and read-only during scheduling; set it only from tests and
    fuzzing campaigns, and reset it afterwards. *)
type fault = Lax_resources

val fault : fault option ref

(** The engine's working state for one attempt. *)
module Work : sig
  type schedule := t
  type t

  (** When [arena] is given, the reservation table and the columns
      borrow their flat buffers from it (see {!Arena}); at most one live
      working state may use a given arena. *)
  val create :
    ?arena:Arena.t -> ?lat:Latency.t -> Hcrf_machine.Config.t -> ii:int ->
    t

  (** The columns under construction: read them with the product's
      queries, change them only through [place]/[unplace] below. *)
  val columns : t -> schedule

  (** The reservation vector of [v] at [loc], compiled once and cached.
      It is only valid while the inputs that chose it hold — for a
      [Move], the producer's bank. *)
  val prepare : t -> Hcrf_ir.Ddg.t -> int -> loc:Topology.loc -> Mrt.cuses

  val fits : t -> Mrt.cuses -> cycle:int -> bool

  (** Whether [fits] holds at some cycle ({!Mrt.can_place_any_c}):
      every window of II consecutive cycles asks the same question. *)
  val fits_any : t -> Mrt.cuses -> bool

  (** Record and reserve; raises [Invalid_argument] when already
      placed. *)
  val place :
    t -> Hcrf_ir.Ddg.t -> int -> Mrt.cuses -> cycle:int ->
    loc:Topology.loc -> unit

  val unplace : t -> int -> unit

  (** Nodes that must be ejected to reserve [v]'s resources at
      [cycle]. *)
  val conflicts :
    t -> Hcrf_ir.Ddg.t -> int -> cycle:int -> loc:Topology.loc -> int list

  (** {!Mrt.total_occupancy} of the reservation table. *)
  val total_occupancy : t -> Topology.resource -> int

  (** The product: the columns cut to [next_id] cells in fresh arrays;
      no reservation table, compiled reservation or arena buffer. *)
  val product : t -> next_id:int -> schedule
end
