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
    loop, options and memory scenario.  Neither [opts.load_override]
    (derived from scenario and loop, both covered) nor the tracer is
    sampled — tracing must never change what is computed. *)
val cache_key :
  scenario:memory_scenario -> opts:Hcrf_sched.Engine.options ->
  Hcrf_machine.Config.t -> Hcrf_ir.Loop.t -> Hcrf_cache.Fingerprint.t

(** The uncached work — schedule with escalating budget retries and,
    under a real memory scenario, simulate the stalls — packaged as a
    closure-free cache entry ({!Hcrf_cache.Entry.Failed} when every
    retry failed).  This is the single compute path behind [run_loop]
    and the serving daemon's miss handler, so both produce identical
    entries for identical inputs. *)
val compute_entry :
  ?trace:Hcrf_obs.Trace.t -> scenario:memory_scenario ->
  opts:Hcrf_sched.Engine.options -> Hcrf_machine.Config.t ->
  Hcrf_ir.Loop.t -> Hcrf_cache.Entry.t

(** Replay an entry (fresh or cached — same code either way) into a
    [loop_result]; [None] for [Failed] entries, with the same warning a
    live failure logs. *)
val result_of_entry :
  Hcrf_machine.Config.t -> Hcrf_ir.Loop.t -> Hcrf_cache.Entry.t ->
  loop_result option

(** Always [true]: cache keys include node ids, so every entry found
    under a loop's key was computed from exactly that loop.  Kept for
    the benchmark harness (perfbench), which still calls it; it goes
    with the next change to that harness. *)
val entry_compatible : Hcrf_ir.Loop.t -> Hcrf_cache.Entry.t -> bool

(** Schedule one loop (with escalating budget retries so aggregate
    metrics never silently drop loops); [None] only if every retry
    failed.  A one-loop {!run_suite}. *)
val run_loop :
  ?ctx:Ctx.t -> Hcrf_machine.Config.t -> Hcrf_ir.Loop.t ->
  loop_result option

(** Schedule a whole suite; loops that fail to schedule are dropped
    (and logged).  One resolver answers every schedule: it computes
    each loop's key, looks it up in one store — [ctx.cache], else the
    memo's {!Memo.cache}, else none — and coalesces duplicates (same
    key) onto one owner, all serially in input order; only
    the owners' engine runs fan out over [ctx.jobs] domains ({!Par}),
    and their entries are committed to the store serially in input
    order.  Results are replayed from the entries ({!result_of_entry})
    and trace buffers committed in input order, so aggregates, trace
    counter totals and JSONL trace files are byte-identical at any job
    count, warm or cold cache alike. *)
val run_suite :
  ?ctx:Ctx.t -> Hcrf_machine.Config.t -> Hcrf_ir.Loop.t list ->
  loop_result list

(** Traced parallel map for drivers that run the engine directly rather
    than through {!run_loop}: each item gets a trace labelled by
    [label], threaded to [f], and committed in input order. *)
val par_map :
  ctx:Ctx.t -> label:('a -> string) ->
  (trace:Hcrf_obs.Trace.t -> 'a -> 'b) -> 'a list -> 'b list

val aggregate :
  Hcrf_machine.Config.t -> loop_result list -> Metrics.aggregate

(** How one {!run_pipeline} call answered its schedule stages.  All
    fields depend only on classification decisions taken serially in
    input order, so they are identical at any job count. *)
type pipeline_stats = {
  total : int;  (** loops evaluated *)
  store_hits : int;  (** schedule stages answered by the store *)
  computed : int;  (** dirty: the engine actually re-ran *)
  coalesced : int;  (** duplicates joined onto an in-flight owner *)
  metric_hits : int;  (** metric stages replayed from the memo *)
  dirty : string list;
      (** names of the loops that re-ran the engine, in input order *)
}

val pp_pipeline_stats : Format.formatter -> pipeline_stats -> unit

(** Evaluate a suite as the staged incremental pipeline: the
    {!run_suite} resolver, plus a metric stage memoized in [ctx.memo]
    (keyed by cache key and loop name).  After an edit only the loops
    whose upstream digest changed re-run the engine; everything else
    replays from the memo and the store, byte-identical to a cold run up
    to re-measured [sched_seconds].  Per-loop results come back in input
    order ([None] where every scheduling retry failed); stats, stage
    counters and trace files are independent of [ctx.jobs]. *)
val run_pipeline :
  ?ctx:Ctx.t -> Hcrf_machine.Config.t -> Hcrf_ir.Loop.t list ->
  Metrics.loop_perf option list * pipeline_stats
