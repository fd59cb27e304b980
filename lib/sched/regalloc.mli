(** Rotating register allocation for modulo-scheduled lifetimes.

    In a rotating register file of R registers the register name space
    advances by one every II cycles, so (register, time) pairs form a
    single wheel of R * II positions: instance i of a value born at
    kernel cycle b with offset o occupies wheel coordinates
    [(b mod II) + o * II, + span), independent of i.  Allocation places
    one arc per lifetime on that wheel, the anchor constrained to the
    birth phase plus a multiple of II (the chosen offset).

    This is the [Register_Allocation] step of Figure 5: it turns the
    MaxLives feasibility measure into an explicit register assignment
    that the cycle-accurate executor in {!Hcrf_pipesim} replays through
    physical registers. *)

type assignment = {
  bank : Topology.bank;
  registers_used : int;     (** rotating file size R *)
  map : (int * int) list;   (** (defining node, register offset) *)
}

(** Allocate the lifetimes of one bank; [None] when [capacity] (if
    finite) is exceeded, in which case a [Regalloc_fail] event is
    reported on [trace].  Zero-span lifetimes flow through the bypass
    and receive no register. *)
val allocate_bank :
  ?trace:Hcrf_obs.Trace.t -> ii:int -> bank:Topology.bank ->
  capacity:Hcrf_machine.Cap.t -> Lifetimes.lifetime list ->
  assignment option

(** Registers of [bank] left to its values: its capacity less its
    invariant residents ({!Lifetimes.residents}, same [loc_of]).  The
    engine and {!allocate} both allocate against it. *)
val capacity :
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t ->
  loc_of:(int -> Topology.loc option) -> Topology.bank ->
  Hcrf_machine.Cap.t

(** Allocate every bank of a complete schedule against {!capacity};
    [Error bank] names the first bank that does not fit. *)
val allocate :
  Schedule.t -> Hcrf_ir.Ddg.t ->
  (assignment list, Topology.bank) result
