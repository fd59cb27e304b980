(** Capacity-bounded LRU map: the daemon's first answer tier, a small
    hot set in front of the sharded {!Hcrf_cache.Cache}.

    Constant-time lookup and insertion (hash table into an intrusive
    doubly-linked recency list); one internal mutex, so a single [t] is
    safe to share between connection-handler threads and pool domains.
    The eviction counter is kept under the same lock and surfaced by
    the daemon's [Stats] reply; hits and misses are counted once, by
    the daemon's [Serve] notes ({!Tiers}). *)

type ('k, 'v) t

type stats = {
  evictions : int;
  length : int;
  capacity : int;
}

(** Raises [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> ('k, 'v) t

(** [find t k] returns the binding and promotes it to most recently
    used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Insert or replace (either way the binding becomes most recently
    used); beyond capacity the least recently used binding is
    evicted. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val length : ('k, 'v) t -> int
val stats : ('k, 'v) t -> stats
