(** The stage memo of the incremental evaluation pipeline.

    One table memoizes the frontend, extract and metric stages of the
    program → loops → schedules → metrics pipeline
    ({!Runner.run_pipeline}, [Hcrf_incr.Pipeline]): entries are keyed by
    (stage, input digest) and hold the stage's closure-free result, so
    an edit recomputes only the stages whose upstream digest actually
    changed — everything else replays from here, byte-identical to a
    cold run.  The sched stage keeps no second copy of its entries: they
    live in one schedule cache — the runner context's when it has one,
    otherwise the memo's own {!cache} — and the memo only counts that
    stage's lookups.

    Values must stay marshal-safe (a memo can be persisted to disk):
    loops are snapshotted as {!Hcrf_ir.Ddg.repr} because a live
    [Ddg.t] may carry a watcher closure.

    All operations are thread-safe (one internal mutex), so a [Par] pool
    may share one memo. *)

type loop_snapshot = {
  ls_repr : Hcrf_ir.Ddg.repr;
  ls_trip_count : int;
  ls_entries : int;
  ls_streams : Hcrf_ir.Loop.stream list;
}

(** One memoized stage result. *)
type value =
  | Loop_v of loop_snapshot  (** frontend: compiled kernel *)
  | Fp_v of Hcrf_cache.Fingerprint.t  (** extract: WL loop fingerprint *)
  | Perf_v of Metrics.loop_perf option
      (** metric: derived metrics; [None] replays a scheduling failure
          without re-logging it *)

val snapshot_of_loop : Hcrf_ir.Loop.t -> loop_snapshot
val loop_of_snapshot : loop_snapshot -> Hcrf_ir.Loop.t

type t

(** An empty memo; with [dir], load a previously {!save}d table from
    [dir/memo.v2] (a corrupt file, or one of an older version, is
    discarded with a warning) and back {!cache} with the store shards
    under [dir]. *)
val create : ?dir:string -> unit -> t

(** The schedule cache the memo owns: where the sched stage's entries
    live when the runner context has no cache of its own. *)
val cache : t -> Hcrf_cache.Cache.t

(** Lookup under a stage namespace ([key]s of different stages never
    collide); bumps that stage's hit or miss counter. *)
val find : t -> stage:Hcrf_obs.Event.incr_stage -> string -> value option

val add : t -> stage:Hcrf_obs.Event.incr_stage -> string -> value -> unit

(** Bump a stage's hit or miss counter for a lookup answered elsewhere
    (the sched stage's, in the schedule cache). *)
val count : t -> stage:Hcrf_obs.Event.incr_stage -> hit:bool -> unit

(** One memoized stage: the value under [key], replayed when the stored
    value is accepted by [get] (returned with [true]), else computed,
    stored as [put v] and returned with [false].  Emits the stage's
    [Incr] hit or miss event, and its recompute event, timed. *)
val memoize :
  t -> trace:Hcrf_obs.Trace.t -> stage:Hcrf_obs.Event.incr_stage -> string ->
  get:(value -> 'a option) -> put:('a -> value) -> (unit -> 'a) -> 'a * bool

(** Wall clock in ns, the time base of [Incr] events. *)
val now_ns : unit -> int

(** Emit an [Incr] event for [stage] timed since [since] (a no-op on a
    disabled trace). *)
val emit :
  Hcrf_obs.Trace.t -> Hcrf_obs.Event.incr_stage -> Hcrf_obs.Event.incr_op ->
  since:int -> unit

(** Number of results in the memo's own table (schedule entries, which
    live in the cache, are not counted). *)
val length : t -> int

(** Per-stage lookup counters since creation, sorted by key
    (["extract.hits"], ["extract.misses"], ["frontend.hits"], ...);
    stages that were never looked up are omitted. *)
val stage_stats : t -> (string * int) list

(** Persist the table to [dir/memo.v2] (atomic rename; schedule
    entries already persist in the cache's store shards as they are
    added); a no-op without [dir].  Returns [false] (warned) when the
    write failed. *)
val save : t -> bool
