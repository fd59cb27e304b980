(** Serializable cache entries for scheduling outcomes.

    An {!Hcrf_sched.Engine.outcome} holds a graph with mutable tables
    and a latency table with a closure, so it cannot be marshalled
    directly.  An entry instead stores a closure-free snapshot — the
    final graph as a {!Hcrf_ir.Ddg.repr}, the schedule's per-node
    columns as int arrays and the load-latency override as a finite
    list — from which
    {!to_outcome} restores an identical outcome: {!Hcrf_ir.Ddg.of_repr}
    plus a column restore ({!Hcrf_sched.Schedule.of_columns}), with no
    placement replayed.

    Failed scheduling attempts are cached too ([Failed]), so a loop that
    fails both escalation rungs is not re-ground on the next run. *)

type stored_outcome = {
  s_ii : int;
  s_mii : int;
  s_bounds : Hcrf_sched.Mii.bounds;
  s_sc : int;
  s_cycle : int array;  (** id -> issue cycle, [min_int] unscheduled *)
  s_loc : int array;  (** id -> location code (-1 Global, i cluster) *)
  s_bank : int array;  (** id -> definition bank code, -1 when none *)
  s_graph : Hcrf_ir.Ddg.repr;
  s_load_override : (int * int) list;
      (** node, load latency: the engine's latency override (binding
          prefetch), so a replayed schedule reads lifetimes with the
          table it was built under *)
  s_seconds : float;  (** original scheduling wall-clock, not replay *)
  s_stats : Hcrf_sched.Engine.stats;
}

type t =
  | Scheduled of {
      outcome : stored_outcome;
      stall_cycles : float;  (** memory-simulation stalls of the run *)
    }
  | Failed of int  (** last II tried before giving up *)

(** Snapshot an outcome (pure; does not consume the outcome). *)
val of_outcome :
  Hcrf_sched.Engine.outcome -> stall_cycles:float -> t

(** Restore a full outcome for [config], its schedule under the latency
    table the engine scheduled with.  The caller must pass the same
    configuration the entry was stored under (the cache key guarantees
    this). *)
val to_outcome :
  Hcrf_machine.Config.t -> stored_outcome -> Hcrf_sched.Engine.outcome
