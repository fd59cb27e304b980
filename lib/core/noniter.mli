(** The non-iterative baseline scheduler of [36] (Zalamea et al.,
    MICRO-33), used by the paper's Table 4 comparison.

    [36] schedules hierarchical (non-clustered) register files with
    register allocation and spilling but *without* the iterative
    backtracking of MIRS_HC: once a node fails to find a slot, the
    partial schedule is discarded and the loop retried at II + 1.  It
    also uses a plain topological node order rather than the HRMS
    ordering (which depends on backtracking to resolve its
    both-neighbours placements). *)

(** Schedule with backtracking off and topological ordering; every
    other option keeps its value in {!Hcrf_sched.Engine.default_options}. *)
val schedule :
  ?trace:Hcrf_obs.Trace.t -> Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t ->
  (Hcrf_sched.Engine.outcome, Hcrf_sched.Engine.error) result
