(** Drive the scheduler (and optionally the memory simulator) over a
    suite of loops for one processor configuration. *)

type memory_scenario =
  | Ideal  (** every access hits; no stall cycles (§6.1) *)
  | Real of { prefetch : bool }
      (** cache simulation, optionally with selective binding
          prefetching (§6.2) *)

(** Everything one evaluation run needs, in one record: memory scenario,
    engine options, schedule cache, incremental stage memo, worker count
    and tracer.  {!Ctx.make} is the single construction path: build one
    (or start from {!Ctx.default}) and pass it to every runner call. *)
module Ctx : sig
  type t = {
    scenario : memory_scenario;
    opts : Hcrf_sched.Engine.options;
    cache : Hcrf_cache.Cache.t option;
    memo : Memo.t option;
    jobs : int;
    tracer : Hcrf_obs.Tracer.t;
  }

  (** Ideal memory, default engine options, no cache, no stage memo,
      serial, no tracing. *)
  val default : t

  (** Each argument defaults to the {!default} field. *)
  val make :
    ?scenario:memory_scenario -> ?opts:Hcrf_sched.Engine.options ->
    ?cache:Hcrf_cache.Cache.t -> ?memo:Memo.t -> ?jobs:int ->
    ?tracer:Hcrf_obs.Tracer.t -> unit -> t
end

type loop_result = {
  loop : Hcrf_ir.Loop.t;
  outcome : Hcrf_sched.Engine.outcome;
  perf : Metrics.loop_perf;
}

(** Memory references of the final graph for the cache simulation:
    original operations replay their loop streams, spill operations get
    per-op stack slots. *)
val mem_refs :
  Hcrf_machine.Config.t -> Hcrf_ir.Loop.t -> Hcrf_sched.Engine.outcome ->
  override:(int -> int option) -> Hcrf_memsim.Sim.mem_ref list

val scenario_tag : memory_scenario -> string

(** Canonical cache key of one [run_loop] invocation: configuration,
    loop, options and memory scenario, combined in that order.  Neither
    [opts.load_override] (derived from scenario and loop, both covered)
    nor the tracer is sampled — tracing must never change what is
    computed.  The loop part is the key the loop carries
    ({!Hcrf_ir.Loop.key}), so only a loop's first key costs its
    transcript.  Applied to all but the loop, it takes the
    configuration, options and scenario digests once: the batch paths
    key every loop of a batch from one such prefix. *)
val cache_key :
  scenario:memory_scenario -> opts:Hcrf_sched.Engine.options ->
  Hcrf_machine.Config.t -> Hcrf_ir.Loop.t -> Hcrf_cache.Fingerprint.t

(** The uncached work — schedule with
    {!Hcrf_sched.Engine.schedule_escalating} and, under a real memory
    scenario, simulate the stalls — packaged as a closure-free cache
    entry ({!Hcrf_cache.Entry.Failed} when both rungs failed).  This is
    the single compute path behind [run_loop] and the serving daemon's
    miss handler, so both produce identical entries for identical
    inputs. *)
val compute_entry :
  ?trace:Hcrf_obs.Trace.t -> scenario:memory_scenario ->
  opts:Hcrf_sched.Engine.options -> Hcrf_machine.Config.t ->
  Hcrf_ir.Loop.t -> Hcrf_cache.Entry.t

(** Replay an entry (fresh or cached — same code either way) into a
    [loop_result]: the outcome restored by {!Hcrf_cache.Entry.to_outcome},
    the metrics read from the entry by {!Metrics.of_stored} (the one
    constructor of every runner answer's metrics).  [None] for [Failed]
    entries, with the same warning a live failure logs. *)
val result_of_entry :
  Hcrf_machine.Config.t -> Hcrf_ir.Loop.t -> Hcrf_cache.Entry.t ->
  loop_result option

(** Always [true]: cache keys include node ids, so every entry found
    under a loop's key was computed from exactly that loop.  Kept for
    the benchmark harness (perfbench), which still calls it; it goes
    with the next change to that harness. *)
val entry_compatible : Hcrf_ir.Loop.t -> Hcrf_cache.Entry.t -> bool

(** Schedule one loop (with the engine's escalation, so aggregate
    metrics never silently drop loops) and replay its full outcome;
    [None] only if both rungs failed.  The {!run_pipeline}
    resolver over one loop, plus {!result_of_entry}: the only runner
    call that rebuilds an outcome. *)
val run_loop :
  ?ctx:Ctx.t -> Hcrf_machine.Config.t -> Hcrf_ir.Loop.t ->
  loop_result option

(** Schedule a whole suite and answer its aggregate: the
    {!Metrics.aggregate} of {!run_pipeline}'s metrics in input order.
    Loops that fail to schedule are dropped (and logged); no outcome
    is replayed. *)
val run_suite :
  ?ctx:Ctx.t -> Hcrf_machine.Config.t -> Hcrf_ir.Loop.t list ->
  Metrics.aggregate

(** Traced parallel map for drivers that run the engine directly rather
    than through {!run_loop}: each item gets a trace labelled by
    [label], threaded to [f], and committed in input order. *)
val par_map :
  ctx:Ctx.t -> label:('a -> string) ->
  (trace:Hcrf_obs.Trace.t -> 'a -> 'b) -> 'a list -> 'b list

(** {!Metrics.aggregate} over the results' metrics.  Kept for the
    benchmark harness (perfbench), which still calls it; batch drivers
    take their aggregate from {!run_suite}. *)
val aggregate :
  Hcrf_machine.Config.t -> loop_result list -> Metrics.aggregate

(** How one {!run_pipeline} call answered its schedules.  All fields
    depend only on classification decisions taken serially in input
    order, so they are identical at any job count. *)
type pipeline_stats = {
  total : int;  (** loops evaluated *)
  store_hits : int;  (** schedules answered by the store *)
  computed : int;  (** dirty: the engine actually re-ran *)
  coalesced : int;  (** duplicates joined onto an in-flight owner *)
  dirty : string list;
      (** names of the loops that re-ran the engine, in input order *)
}

val pp_pipeline_stats : Format.formatter -> pipeline_stats -> unit

(** Evaluate a suite — the one batch body behind {!run_suite} and the
    incremental pipeline.  One resolver answers every schedule: it
    computes each loop's key (a loop the stage memo hands back again
    carries its key), looks it up in one store — [ctx.cache], else the
    memo's {!Memo.cache}, else none — and coalesces duplicates (same
    key) onto one owner, all serially in input order; only the owners'
    engine runs fan out over [ctx.jobs] domains ({!Par}), and their
    entries are committed to the store serially in input order.  Each
    loop's metrics are read straight from its schedule entry
    ({!Metrics.of_stored}: no graph rebuilt, the same figures
    {!result_of_entry} gives) and its trace buffer committed, in input
    order — [None] where both escalation rungs failed, warned on every
    call — followed by how the schedules were answered.  After an edit
    only the loops whose cache key changed re-run the engine; everything
    else is read from the store, byte-identical to a cold run up to
    re-measured [sched_seconds].  Metrics, stats, trace counter totals
    and JSONL trace files are independent of [ctx.jobs], warm or cold
    cache alike. *)
val run_pipeline :
  ?ctx:Ctx.t -> Hcrf_machine.Config.t -> Hcrf_ir.Loop.t list ->
  Metrics.loop_perf option list * pipeline_stats
