(** Serializable cache entries for scheduling outcomes.

    An {!Hcrf_sched.Engine.outcome} contains mutable hash tables and one
    closure ([invariant_residents]), so it cannot be marshalled
    directly.  An entry instead stores a closure-free snapshot — the
    final graph as a {!Hcrf_ir.Ddg.repr}, the (node, cycle, location)
    assignments, the per-bank invariant residency captured as a finite
    table — from which {!to_outcome} rebuilds a behaviourally identical
    outcome by replaying the placements into a fresh
    {!Hcrf_sched.Schedule.t}.

    Failed scheduling attempts are cached too ([Failed]), so a loop that
    exhausts every escalation rung is not re-ground on the next run. *)

type stored_outcome = {
  s_ii : int;
  s_mii : int;
  s_bounds : Hcrf_sched.Mii.bounds;
  s_sc : int;
  s_assigns : (int * int * Hcrf_sched.Topology.loc) list;
      (** node, cycle, location — sorted by (cycle, node) so that
          producers are replayed before the [Move]s that read them *)
  s_graph : Hcrf_ir.Ddg.repr;
  s_invariant_residents : (Hcrf_sched.Topology.bank * int) list;
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
      retries : int;  (** escalation rungs taken by the runner *)
      input_digest : string;
          (** {!ddg_digest} of the *input* graph the schedule was
              computed from (ids included) *)
    }
  | Failed of int  (** last II tried before giving up *)

(** Canonical id-sensitive digest of a graph.  The cache key's WL
    fingerprint equates isomorphic graphs, but stored assignments are
    tied to concrete node ids; comparing this digest at lookup time
    (via [Cache.find ~validate]) keeps a renumbered twin from replaying
    a schedule bound to the wrong ids.  Invariant under adjacency-list
    and invariant-table reordering, sensitive to any renumbering. *)
val ddg_digest : Hcrf_ir.Ddg.t -> string

(** Snapshot an outcome (pure; does not consume the outcome).
    [input_digest] must be {!ddg_digest} of the graph handed to the
    engine — not of the outcome's extended graph. *)
val of_outcome :
  Hcrf_machine.Config.t -> Hcrf_sched.Engine.outcome ->
  input_digest:string -> stall_cycles:float -> retries:int -> t

(** Rebuild a full outcome for [config], its schedule under the latency
    table the engine scheduled with.  The caller must pass the same
    configuration the entry was stored under (the cache key guarantees
    this). *)
val to_outcome :
  Hcrf_machine.Config.t -> stored_outcome -> Hcrf_sched.Engine.outcome
