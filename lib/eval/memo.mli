(** The stage memo of the incremental evaluation pipeline.

    One table maps a kernel's content digest to its compiled, live
    {!Hcrf_ir.Loop.t} ([Hcrf_incr.Pipeline]'s frontend stage), so an
    edit recompiles only the kernels whose digest changed; every other
    kernel hands its stored loop, and with it the key that loop
    carries ({!Hcrf_ir.Loop.key}), to the schedule resolver.
    Schedules are not kept here: they live in one schedule cache — the
    runner context's when it has one, otherwise the memo's own {!cache}
    — which counts its own lookups, and metrics are read from the
    schedule entry on every evaluation.

    A stored loop is shared by every evaluation that finds it, and its
    graph is frozen like every loop's ({!Hcrf_ir.Loop.t}): the engine
    schedules a copy ([Ddg.copy]) and every other reader only reads.

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

(** The loop stored under [digest], returned with [true]; else
    [compile ()], stored under [digest] and returned with [false].
    Notes the hit or miss, and the compilation, timed. *)
val find_or_compile :
  t -> trace:Hcrf_obs.Trace.t -> string -> (unit -> Hcrf_ir.Loop.t) ->
  Hcrf_ir.Loop.t * bool

(** One [Stage_hit] note per trace, all under one lock, timed at 0 ns:
    the kernels a pipeline answered without a lookup, counted as the
    hits those lookups would have been. *)
val note_hits : t -> Hcrf_obs.Trace.t list -> unit

(** Number of loops in the memo. *)
val length : t -> int

(** Lookup counts since creation, read from the registry's hit and miss
    notes, sorted by key (["frontend.hits"], ["frontend.misses"]); zero
    counts are omitted. *)
val stage_stats : t -> (string * int) list
