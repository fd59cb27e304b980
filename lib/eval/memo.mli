(** The stage memo of the incremental evaluation pipeline.

    One table maps a kernel's content digest to its compiled, live
    {!Hcrf_ir.Loop.t} and that loop's {!Hcrf_cache.Fingerprint.of_loop}
    ([Hcrf_incr.Pipeline]'s frontend stage), so an edit recompiles and
    re-fingerprints only the kernels whose digest changed; every other
    kernel hands its stored fingerprint to the schedule resolver.
    Schedules are not kept here: they live in one schedule cache — the
    runner context's when it has one, otherwise the memo's own {!cache}
    — which counts its own lookups, and metrics are read from the
    schedule entry on every evaluation.

    A stored loop is shared by every evaluation that finds it, so no
    caller may mutate its graph: the engine schedules a copy
    ([Ddg.copy]) and every other reader only reads.

    Counting: every lookup is one [Incr] note — counted in the memo's
    always-on {!Hcrf_obs.Counters} registry, which {!stage_stats}
    reads, and recorded in the work unit's trace when that trace is
    enabled.

    The memo lives in-process only and never evicts: the schedule
    entries are the one evaluation state that persists, in the store
    shards of a cache built with a directory.

    All operations are thread-safe (one internal mutex), so a [Par] pool
    may share one memo. *)

type t

(** An empty memo over an in-memory schedule cache of its own. *)
val create : unit -> t

(** The schedule cache the memo owns: where schedule entries live when
    the runner context has no cache of its own. *)
val cache : t -> Hcrf_cache.Cache.t

(** The loop and fingerprint stored under [digest], returned with
    [true]; else [compile ()], stored under [digest] and returned with
    [false].  [compile] returns the compiled loop with its
    {!Hcrf_cache.Fingerprint.of_loop}, so a kernel's fingerprint is
    taken once per compilation, not once per evaluation.  Notes the hit
    or miss, and the compilation, timed. *)
val find_or_compile :
  t -> trace:Hcrf_obs.Trace.t -> string ->
  (unit -> Hcrf_ir.Loop.t * Hcrf_cache.Fingerprint.t) ->
  (Hcrf_ir.Loop.t * Hcrf_cache.Fingerprint.t) * bool

(** Number of loops in the memo. *)
val length : t -> int

(** Lookup counts since creation, read from the registry's hit and miss
    notes, sorted by key (["frontend.hits"], ["frontend.misses"]); zero
    counts are omitted. *)
val stage_stats : t -> (string * int) list
