(** The stage memo of the incremental evaluation pipeline.

    One table memoizes the frontend and metric stages of the
    program → loops → schedules → metrics pipeline
    ({!Runner.run_pipeline}, [Hcrf_incr.Pipeline]): entries are keyed by
    (stage, input digest) and hold the stage's closure-free result, so
    an edit recomputes only the stages whose upstream digest actually
    changed — everything else replays from here, byte-identical to a
    cold run.  The sched stage keeps no second copy of its entries: they
    live in one schedule cache — the runner context's when it has one,
    otherwise the memo's own {!cache} — and the memo only counts that
    stage's lookups.

    Counting: every stage step is one [Incr] note ({!emit}) — counted
    in the memo's always-on {!Hcrf_obs.Counters} registry, which
    {!stage_stats} reads, and recorded in the work unit's trace when
    that trace is enabled.

    Values must stay marshal-safe (a memo can be persisted to disk):
    loops are stored as {!Hcrf_ir.Loop.repr} because a live [Ddg.t] may
    carry a watcher closure.

    All operations are thread-safe (one internal mutex), so a [Par] pool
    may share one memo. *)

(** One memoized stage result. *)
type value =
  | Loop_v of Hcrf_ir.Loop.repr  (** frontend: compiled kernel *)
  | Perf_v of Metrics.loop_perf option
      (** metric: derived metrics; [None] replays a scheduling failure
          without re-logging it *)

type t

(** An empty memo; with [dir], load a previously {!save}d table from
    [dir/memo.v4] (a corrupt file, or one of an older version, is
    discarded with a warning) and back {!cache} with the store shards
    under [dir]. *)
val create : ?dir:string -> unit -> t

(** The schedule cache the memo owns: where the sched stage's entries
    live when the runner context has no cache of its own. *)
val cache : t -> Hcrf_cache.Cache.t

(** Store a result under a stage namespace ([key]s of different stages
    never collide). *)
val add : t -> stage:Hcrf_obs.Event.incr_stage -> string -> value -> unit

(** One memoized stage: the value under [key], replayed when the stored
    value is accepted by [get] (returned with [true]), else computed,
    stored as [put v] and returned with [false].  Notes the stage's
    hit or miss, and its recompute, timed (see {!emit}). *)
val memoize :
  t -> trace:Hcrf_obs.Trace.t -> stage:Hcrf_obs.Event.incr_stage -> string ->
  get:(value -> 'a option) -> put:('a -> value) -> (unit -> 'a) -> 'a * bool

(** Wall clock in ns, the time base of [Incr] events. *)
val now_ns : unit -> int

(** Note one step of [stage] timed since [since]: count it in the
    memo's registry and record it in [trace] when enabled.  The sched
    stage, answered by the schedule cache, is noted this way. *)
val emit :
  t -> Hcrf_obs.Trace.t -> Hcrf_obs.Event.incr_stage ->
  Hcrf_obs.Event.incr_op -> since:int -> unit

(** Number of results in the memo's own table (schedule entries, which
    live in the cache, are not counted). *)
val length : t -> int

(** Per-stage lookup counts since creation, read from the registry's
    hit and miss notes, sorted by key (["frontend.hits"],
    ["frontend.misses"], ["metric.hits"], ...); zero counts are
    omitted. *)
val stage_stats : t -> (string * int) list

(** Persist the table to [dir/memo.v4] (atomic rename; schedule
    entries already persist in the cache's store shards as they are
    added); a no-op without [dir].  Returns [false] (warned) when the
    write failed. *)
val save : t -> bool
