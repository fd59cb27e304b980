(** Trace-driven stall-cycle simulation of one scheduled loop.

    Replays the loop's memory streams through the {!Cache} with a small
    timing model: a lockup-free cache with a bounded number of
    outstanding misses (merging fills to a line already in flight), an
    in-order processor that stalls when a load's value is not ready when
    the schedule expects it (stalls push all later issues back, so the
    miss queue drains), and stores that never stall (a store buffer is
    assumed).  Only a bounded number of iterations of one entry is
    simulated; stall counts are scaled to the loop's full [N * E]
    execution. *)

type mem_ref = {
  node : int;
  is_load : bool;
  issue_offset : int;   (** flat schedule cycle of the op *)
  sched_latency : int;  (** latency the schedule assumed for the value *)
  base : int;
  stride : int;
}

type result = {
  stall_cycles : float;  (** scaled to the loop's full execution *)
  simulated_iterations : int;
  misses : int;
  accesses : int;
}

val max_sim_iterations : int

(** [refs] must describe every memory operation of the *final* graph
    (including spill code); [n]/[e] are the per-entry trip count and the
    entry count.  A miss arriving with every MSHR busy steals the slot
    of the oldest pending fill (waiting for it to retire first), so the
    outstanding-miss count never exceeds [mshrs]; [debug] asserts that
    invariant after every allocation.  Raises [Invalid_argument] if
    [mshrs < 1].

    The simulated accesses allocate nothing, and a hit costs one cache
    probe: whether an access hits depends on the addresses alone, so
    the timing model (issue time, fill retirement, the merge with a fill
    in flight, the MSHR steal and the stall) runs only at misses.  A
    load hit scheduled below the hit latency stalls by a constant of its
    reference.  The fills an access would retire leave at the next miss,
    by the latest issue time since the previous miss: issue times ascend
    within an iteration but fall back at each iteration boundary when
    the schedule spans more than [ii] cycles, so neither the miss's own
    issue time nor the latest one ever seen would do.  The result is
    bit-identical to retiring at every access. *)
val run :
  ?mshrs:int -> ?debug:bool -> ?cache:Cache.t -> ii:int -> hit_read:int ->
  miss_cycles:int -> n:int -> e:int -> mem_ref list -> result
