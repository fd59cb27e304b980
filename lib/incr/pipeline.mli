(** The staged, memoized evaluation pipeline over a frontend program.

    A program (a list of loop-language kernels) flows through three
    stages — frontend compile, schedule, metrics.  The compile is
    memoized under the kernel's content digest in the context's
    {!Hcrf_eval.Memo}, which keeps the live compiled loop, and the
    loop keeps its own key ({!Hcrf_ir.Loop.key}), taken on its first
    read; the schedule is memoized under the loop's cache key in the
    runner's one schedule store, the key built from the loop's carried
    key and a per-call prefix; the metrics are read straight from the
    schedule entry on every evaluation
    ({!Hcrf_eval.Runner.run_pipeline}).  {!eval} after
    an edit therefore recompiles, re-fingerprints and reschedules only
    the edited kernel, every untouched kernel replays without a graph
    being rebuilt, and the results are byte-identical to a cold
    evaluation (up to re-measured [sched_seconds]).

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
      (** schedule accounting, incl. the dirty loop names *)
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
