(** Value lifetimes and per-bank register requirements (MaxLives).

    A value occupies a register from its write-back (definition issue +
    latency; while in flight it travels the pipeline/bypass network, as
    in Rau's register-requirement model for modulo schedules) until its
    last read; a consumer at cycle c through an edge of distance d reads
    at flat cycle c + II * d.  The register requirement of a bank at
    modulo slot s is the number of simultaneously live values there,
    counting the copies belonging to overlapped iterations — the
    standard MaxLives measure.

    Loop invariants are the one other register demand (§5.1): an
    invariant holds one register for the whole loop in every bank that
    one of its scheduled consumers reads it from.  {!resident} is that
    rule and {!residents} counts it per bank; nothing stores the count.
    It adds to a bank's MaxLives ({!pressure}) and comes off the bank's
    capacity before rotating allocation ({!Regalloc.capacity}). *)

type lifetime = {
  def : int;               (** defining node *)
  bank : Topology.bank;
  start : int;             (** write-back cycle of the definition *)
  stop : int;              (** last read cycle; live over [start, stop) *)
}

val span : lifetime -> int

(** Lifetimes of all values whose definition is scheduled.  Unscheduled
    consumers do not extend a lifetime (the requirement grows
    monotonically as the schedule fills in). *)
val of_schedule : Schedule.t -> Hcrf_ir.Ddg.t -> lifetime list

(** MaxLives of [bank]. *)
val pressure : ii:int -> bank:Topology.bank -> lifetime list -> int

(** Whether consumer [c], placed and still in the graph, reads its
    operands from [bank]; [loc_of v] is [v]'s location, [None] while
    [v] is unplaced. *)
val reads_from :
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t ->
  loc_of:(int -> Topology.loc option) -> Topology.bank -> int -> bool

(** Whether some consumer of the invariant reads it from [bank]. *)
val resident :
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t ->
  loc_of:(int -> Topology.loc option) -> Topology.bank ->
  Hcrf_ir.Ddg.invariant -> bool

(** The invariants of the graph resident in [bank]. *)
val residents :
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t ->
  loc_of:(int -> Topology.loc option) -> Topology.bank -> int

(** Banks appearing in some lifetime. *)
val banks : lifetime list -> Topology.bank list
