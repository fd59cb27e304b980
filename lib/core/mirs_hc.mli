(** MIRS_HC — Modulo scheduling with Integrated Register Spilling for
    Hierarchical Clustered VLIW architectures: the paper's contribution.

    A single modulo scheduler that simultaneously performs instruction
    scheduling, cluster selection, insertion of inter-bank communication
    (StoreR/LoadR through the shared second-level bank, or Move over the
    buses of a flat clustered RF), register allocation against every
    bank's capacity, and spill-code insertion — iteratively, with
    force-and-eject backtracking under a Budget (§5).

    The same engine degrades gracefully to the earlier members of the
    family: on a monolithic RF it behaves as MIRS [38], on a flat
    clustered RF as MIRS_C [37].  The configuration alone selects the
    behaviour. *)

val default_options : Hcrf_sched.Engine.options

(** Schedule one loop body for the configuration.  Returns the complete
    schedule (with all inserted communication and spill operations in
    [outcome.graph]) or [`No_schedule ii] if no II up to the cap
    admitted a schedule. *)
val schedule :
  ?opts:Hcrf_sched.Engine.options -> ?trace:Hcrf_obs.Trace.t ->
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t ->
  (Hcrf_sched.Engine.outcome, Hcrf_sched.Engine.error) result

(** Run the independent checker on an outcome. *)
val validate : Hcrf_sched.Engine.outcome -> Hcrf_sched.Validate.issue list

val is_valid : Hcrf_sched.Engine.outcome -> bool
