(** Value lifetimes and per-bank register requirements (MaxLives).

    A value occupies a register from its write-back (definition issue +
    latency; while in flight it travels the pipeline/bypass network, as
    in Rau's register-requirement model for modulo schedules) until its
    last read; a consumer at cycle c through an edge of distance d reads
    at flat cycle c + II * d.  The register requirement of a bank at
    modulo slot s is the number of simultaneously live values there,
    counting the copies belonging to overlapped iterations — the
    standard MaxLives measure.

    Loop invariants occupy one register for the whole execution of the
    loop in every bank from which they are read (§5.1); they are
    accounted as a constant addition per bank. *)

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

(** MaxLives of [bank], plus [invariant_residents] whole-loop
    registers. *)
val pressure :
  ii:int -> bank:Topology.bank -> ?invariant_residents:int ->
  lifetime list -> int

(** Banks appearing in some lifetime. *)
val banks : lifetime list -> Topology.bank list
