(** The staged, memoized evaluation pipeline over a frontend program.

    A program (a list of loop-language kernels) flows through three
    stages — frontend compile, schedule, metrics.  The compile is
    memoized under the kernel's content digest in the context's
    {!Hcrf_eval.Memo}, which keeps the live compiled loop, and the
    loop keeps its own key ({!Hcrf_ir.Loop.key}), taken on its first
    read; the schedule is memoized under the loop's cache key in the
    runner's one schedule store, the key built from the loop's carried
    key and a per-call prefix; the metrics are read straight from the
    schedule entry ({!Hcrf_eval.Runner.run_pipeline}).  {!eval} after
    an edit therefore recompiles, re-fingerprints and reschedules only
    the edited kernel, and the results are byte-identical to a cold
    evaluation (up to re-measured [sched_seconds]).

    Reuse.  With a memo in the context, a pipeline keeps its last
    evaluation: the kernels beside their metrics, one immutable
    snapshot in an [Atomic.t], so two domains never see half of one.
    Its configuration, scenario and options are fixed, so a kernel's
    metrics depend on the kernel alone: a kernel physically equal
    ([==]) to the last evaluation's kernel at the same position takes
    its old metrics with no digest, no key and no lookup.  Only the
    other kernels go through the memo and the resolver, in input
    order.  Edit scripts that rebuild one kernel and share the rest
    ({!Hcrf_incr.Progs.edit}) reuse every untouched kernel; an
    insertion or deletion only costs the shifted kernels their reuse,
    and a structurally equal copy goes through the memo.  The state
    holds one program and its metrics, replaced on every evaluation.
    A reused kernel counts as the frontend hit and the store hit its
    lookups would have been ({!eval_stats}, {!Hcrf_eval.Memo.stage_stats},
    one [Stage_hit] note in its trace); only the store's own
    [cache.hit] events and {!Hcrf_cache.Cache.stats} miss it.  A
    kernel whose scheduling failed warns "no schedule" on the
    evaluation that resolves it, not again while it is reused.

    Without a memo in the context, {!eval} degrades to plain (cached)
    suite evaluation — same results, nothing replayed or reused. *)

type t

(** What one {!eval} call did, stage by stage.  All counts derive from
    classification decisions taken serially in input order, so they are
    identical at any job count. *)
type eval_stats = {
  kernels : int;
  frontend_hits : int;
      (** kernels not recompiled: replayed from the frontend memo or
          reused *)
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
