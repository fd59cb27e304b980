(** The daemon's tiered answer path.

    A schedule request is answered by the first tier that has it:

    + a capacity-bounded in-memory {!Lru} of hot entries;
    + the shared {!Hcrf_cache.Cache} — per-shard in-memory tables in
      front of the sharded on-disk store;
    + the scheduling engine, on a persistent {!Pool} of worker domains.

    Every tier is keyed by {!Hcrf_eval.Runner.cache_key}, which
    includes the node ids, so an answer is always bound to the
    request's own ids.  Every tier-3 computation is registered under
    its key while in flight, so a cold storm of identical requests
    coalesces onto one engine run — the duplicates block on the same
    future and all receive the same entry (byte-identical responses) —
    while a renumbered twin computes its own.  Computations run
    {!Hcrf_eval.Runner.compute_entry}, the exact compute path of the
    batch runner, so a daemon answer can never differ from a local
    run.  This coalescing across connections stays apart from the
    runner's batch coalescing on purpose: requests arrive concurrently
    and wait on shared futures, where a batch is classified serially.

    Request deadlines ([sr_timeout_ms]) bound only the caller's wait:
    an expired computation keeps running and still lands in the cache
    (the next request for it is a hit).

    Observability: every tier decision is one [Serve] note
    ({!Hcrf_obs.Counters.note}): it is counted in the tiers' always-on
    registry, which {!stats} reads, and recorded in the request's trace
    when a tracer is set.  Engine traces stay off without a tracer, so
    an untraced computation costs nothing extra. *)

type t

(** [create ()] builds the tiers: [dir] backs tier 2 with the sharded
    on-disk store, [lru_capacity] bounds tier 1 (default
    {!Hcrf_eval.Env.default_serve_lru}), [jobs] sizes the domain pool
    (default {!Hcrf_eval.Par.default_jobs}), [tracer] receives
    per-request and per-computation traces. *)
val create :
  ?dir:string -> ?lru_capacity:int -> ?jobs:int ->
  ?tracer:Hcrf_obs.Tracer.t -> unit -> t

(** Answer one schedule request ([Scheduled] or [Refused]). *)
val schedule : t -> Wire.schedule_request -> Wire.response

(** Count and trace a refused request (malformed frame, oversized
    frame, ...) and build its response. *)
val reject : t -> kind:Wire.error_kind -> string -> Wire.response

(** Live counters of all tiers. *)
val stats : t -> Wire.serve_stats

(** Finish in-flight computations and join the worker domains.
    Idempotent; [schedule] afterwards computes inline (used by the
    daemon's drain). *)
val shutdown : t -> unit
