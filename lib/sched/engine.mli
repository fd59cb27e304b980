(** The iterative modulo-scheduling engine (MIRS family).

    One engine drives every register-file organization: the {!Topology}
    of the configuration decides where operations may execute, which
    bank holds each value, and which communication operations connect
    banks.  The algorithm is Figure 5 of the paper: HRMS-ordered
    scheduling with force-and-eject backtracking, lazy communication
    routing with copy reuse, integrated per-bank register-pressure
    tracking with spill insertion (StoreR/LoadR between levels,
    Spill_store/Spill_load to memory, invariant demotion), all bounded
    by a Budget of [budget_ratio * |V|] attempts; exhaustion restarts at
    II + 1. *)

type options = {
  budget_ratio : int;
  load_override : int -> int option;
      (** per-load latency override for binding prefetching *)
  backtracking : bool;
      (** false: never force-and-eject; a placement failure discards the
          attempt and restarts with II+1, as in the non-iterative
          scheduler of [36] *)
  ordering : [ `Hrms | `Topological ];
      (** node ordering: HRMS-style (default) or plain topological *)
}

val default_options : options

type stats = {
  ejections : int;
  forcings : int;
  value_spills : int;
  invariant_spills : int;
  comm_inserted : int;
  attempts : int;
  ii_restarts : int;  (** failed II attempts of the last search *)
  retries : int;
      (** escalation rungs climbed by {!schedule_escalating} (0 for
          {!schedule}) *)
}

(** The all-zero counters, and field-by-field sums (a suite's effort
    is the sum of its loops'). *)
val zero_stats : stats
val add_stats : stats -> stats -> stats

type outcome = {
  ii : int;
  mii : int;  (** of the original graph, before inserted operations *)
  bounds : Mii.bounds;  (** of the final graph, for bound classification *)
  sc : int;
  schedule : Schedule.t;
      (** the product: columns sized to the final graph's [next_id]; no
          reservation table or arena buffer of the engine's *)
  graph : Hcrf_ir.Ddg.t;  (** final graph with all inserted operations *)
  invariant_residents : int array;
      (** bank code ({!Topology.bank_code}) -> whole-loop registers
          reserved for loop invariants; one cell per code *)
  seconds : float;  (** wall-clock of the whole call, every rung *)
  stats : stats;
}

type error = [ `No_schedule of int (** last II tried *) ]

(** Whether some operation of the graph fits at none of its locations
    even in an empty reservation table (no read or write port, or one
    read port under a two-operand op): such a loop fits at no II, and
    {!schedule} answers it before trying one.  Communication operations
    are not tested: the engine splices out those it cannot place. *)
val unplaceable : Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t -> bool

(** Schedule one loop body: one II search from the MII at
    [opts.budget_ratio], up to [max (4 * mii) (mii + 128)].  The input
    graph is not modified (the outcome's [graph] is an extended copy).
    A loop with an operation that fits at none of its locations even
    in an empty reservation table answers [`No_schedule mii] before any
    II is tried.  [trace] (default {!Hcrf_obs.Trace.off}) receives
    placement, ejection, spill, communication-insertion and phase-span
    events; it is deliberately not part of {!options} so that enabling
    tracing cannot perturb schedule-cache fingerprints. *)
val schedule :
  ?opts:options -> ?trace:Hcrf_obs.Trace.t -> Hcrf_machine.Config.t ->
  Hcrf_ir.Ddg.t -> (outcome, error) result

(** {!schedule}, then, while it fails, the escalation ladder: the same
    search again at budget ratio 16, then at 32 with the II cap raised
    to 4096, each emitting a [Budget_escalate] event first and counted
    in [stats.retries].  The recurrences, MII, order and placeability
    test are computed once for every rung, and a loop that is not
    placeable climbs none.  The evaluation runner's one engine call: a
    dropped loop would silently bias every aggregate metric. *)
val schedule_escalating :
  ?opts:options -> ?trace:Hcrf_obs.Trace.t -> Hcrf_machine.Config.t ->
  Hcrf_ir.Ddg.t -> (outcome, error) result
