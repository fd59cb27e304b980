(** Independent checker for complete schedules.

    Verifies from scratch — without trusting any incremental state of
    the engine — that a schedule is a correct software pipeline for its
    graph and machine: every node placed at a legal location, every
    dependence satisfied modulo II, no resource oversubscribed at any
    slot, every register operand read from the bank it was defined in,
    every bank within its MaxLives capacity, and an explicit rotating
    register allocation existing for every bank.  Both register checks
    apply the engine's own invariant rule, {!Lifetimes.residents}, to
    the schedule itself. *)

type issue =
  | Unscheduled of int
  | Bad_location of int * Topology.loc  (** node, illegal location *)
  | Dependence_violated of Hcrf_ir.Ddg.edge
  | Resource_oversubscribed of Topology.resource * int * int
      (** resource, modulo slot, units reserved there *)
  | Bank_mismatch of Hcrf_ir.Ddg.edge * Topology.bank * Topology.bank
      (** operand edge, bank it was defined in, bank it was read from *)
  | Over_capacity of Topology.bank * int * int (** used, capacity *)
  | Allocation_failed of Topology.bank

val pp_issue : Format.formatter -> issue -> unit

(** All problems found ([] for a valid schedule). *)
val check : Schedule.t -> Hcrf_ir.Ddg.t -> issue list
