(** The staged, memoized evaluation pipeline over a frontend program.

    A program (a list of loop-language kernels) flows through three
    fingerprinted stages — frontend compile, schedule, metrics — each
    memoized under its input digest: the schedule stage in the
    runner's one schedule store, the others in the context's
    {!Hcrf_eval.Memo}.  {!eval}
    after an edit therefore recomputes only the stages whose upstream
    digest changed: an edited kernel recompiles and reschedules, every
    untouched kernel replays from the memo, and the results are
    byte-identical to a cold evaluation (up to re-measured
    [sched_seconds]).

    Without a memo in the context, {!eval} degrades to plain (cached)
    suite evaluation — same results, nothing replayed. *)

type t

(** What one {!eval} call did, stage by stage.  All counts derive from
    classification decisions taken serially in input order, so they are
    identical at any job count. *)
type eval_stats = {
  kernels : int;
  frontend_hits : int;  (** kernels replayed from the frontend memo *)
  frontend_recomputed : int;  (** kernels recompiled *)
  sched : Hcrf_eval.Runner.pipeline_stats;
      (** schedule/metric stage accounting, incl. the dirty loop
          names *)
}

val create : ?ctx:Hcrf_eval.Runner.Ctx.t -> Hcrf_machine.Config.t -> t

val ctx : t -> Hcrf_eval.Runner.Ctx.t

(** Evaluate the program: per-kernel metrics in input order ([None]
    where scheduling failed), their aggregate, and the stage
    accounting. *)
val eval :
  t -> Hcrf_frontend.Ast.t list ->
  Hcrf_eval.Metrics.loop_perf option list
  * Hcrf_eval.Metrics.aggregate
  * eval_stats

val pp_eval_stats : Format.formatter -> eval_stats -> unit
