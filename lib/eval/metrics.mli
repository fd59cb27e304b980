(** The paper's comparison metrics (§2.3).

    For one loop with initiation interval II, stage count SC, N total
    iterations and E entries: useful cycles are
    [II * (N + (SC - 1) * E)]; memory traffic is [N * trf] with trf the
    accesses per iteration of the final schedule (spill included);
    execution time is cycles times the cycle time; stall cycles come
    from the memory simulation (0 under ideal memory). *)

type loop_perf = {
  name : string;
  ii : int;
  mii : int;
  sc : int;
  trip_count : int;          (** per entry *)
  entries : int;
  ops : int;                 (** operations per iteration (original) *)
  mem_refs_per_iter : int;   (** final graph, spill included *)
  useful_cycles : float;
  stall_cycles : float;
  traffic : float;
  bound : Classify.bound;
  sched_seconds : float;
  sched : Hcrf_sched.Engine.stats;  (** the engine's own effort counters *)
}

val useful_cycles : ii:int -> sc:int -> n:int -> e:int -> float

(** Metrics of a loop's outcome; [stall_cycles] defaults to 0. *)
val of_outcome :
  ?stall_cycles:float -> Hcrf_ir.Loop.t ->
  Hcrf_sched.Engine.outcome -> loop_perf

(** Metrics of a loop's stored schedule, read straight from the entry:
    the same figures {!of_outcome} gives for the replayed outcome
    (one constructor behind both), with no graph rebuilt — the
    memory-operation count is read off the stored graph's node list. *)
val of_stored :
  stall_cycles:float -> Hcrf_ir.Loop.t ->
  Hcrf_cache.Entry.stored_outcome -> loop_perf

type aggregate = {
  config : string;
  cycle_ns : float;
  loops : int;
  sum_ii : int;
  sum_mii : int;
  pct_at_mii : float;     (** % of loops scheduled at their MII *)
  exec_cycles : float;    (** useful + stall *)
  useful : float;
  stall : float;
  total_traffic : float;
  dynamic_ops : float;    (** original operations executed *)
  exec_seconds : float;
  sched_seconds : float;  (** scheduler wall-clock for the suite *)
  sched : Hcrf_sched.Engine.stats;  (** summed over the suite *)
  bound_share : (Classify.bound * int * float) list;
      (** per bound: number of loops, execution cycles *)
}

val aggregate : Hcrf_machine.Config.t -> loop_perf list -> aggregate

(** Dynamic IPC under the ideal-memory scenario (Figure 1). *)
val ipc : aggregate -> float

(** Print an aggregate; with [?cache] an extra "cache:" line reports
    the {!Hcrf_cache.Cache.stats} counters next to the scheduler-effort
    stats, and with [?trace] an extra "trace:" line reports the sorted
    event counters of a {!Hcrf_obs.Counters} sink.  Both extra lines
    keep run-to-run-varying data (disk state, wall-clock) out of the
    aggregate itself: a warm cache must aggregate byte-identically to a
    cold one. *)
val pp_aggregate :
  ?cache:Hcrf_cache.Cache.stats -> ?trace:Hcrf_obs.Counters.t ->
  Format.formatter -> aggregate -> unit
