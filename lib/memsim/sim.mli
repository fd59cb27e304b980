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

    The simulated accesses allocate nothing and cost a few integer
    operations each: the references are copied into flat columns once
    per run, the pending fills are compacted only when the earliest of
    them is due, and the cache is probed by line address with a shift
    and a mask. *)
val run :
  ?mshrs:int -> ?debug:bool -> ?cache:Cache.t -> ii:int -> hit_read:int ->
  miss_cycles:int -> n:int -> e:int -> mem_ref list -> result
