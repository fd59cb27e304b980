(** Exact small-loop modulo scheduler: a solver-free branch-and-bound
    that certifies the minimal feasible II under the exact machine model
    of the heuristic ({!Hcrf_sched.Mrt} resources, {!Hcrf_sched.Latency}
    dependences, {!Hcrf_sched.Validate} bank/capacity rules).

    The certification is split in two phases.

    {b Phase A — lower bound.}  A branch-and-bound over the original
    nodes only assigns each an issue cycle and an execution location,
    checking dependences against a max-plus longest-path matrix (edge
    weight [latency - II * distance]) and resources against the real
    reservation table.  Communication and spill code can only {e add}
    latency and resource reservations on top of this relaxation, so an
    II refuted here is infeasible for {e any} real schedule — spilled or
    not.  The search starts at [Mii.mii] and the first non-refuted II is
    the certified lower bound [lb].

    Search-space canonicalizations (all value-preserving):
    - the smallest-id node of the first weakly-connected component is
      pinned to cycle 0 (global rotation symmetry);
    - every other component root ranges over [\[0, II)] (components can
      be shifted independently by multiples of II);
    - within a component, cycles stay within
      [(k - 1) * (max |weight| + II)] of the root (a gap/pigeonhole
      argument shows some optimal schedule satisfies this);
    - homogeneous clusters are used in first-touch order along the fixed
      node order (cluster relabeling symmetry).

    {b Phase B — witness.}  For the lowest non-refuted IIs, enumerate
    location assignments of the original nodes (cluster-symmetry
    broken), insert the canonical copy chains of {!Topology.comm_path}
    with copy reuse — exactly the routing shape the heuristic uses — and
    run a cycle-only branch-and-bound over the extended graph whose
    leaves must pass [Validate.check].  An accepted leaf is a real,
    spill-free schedule; when its II equals [lb] the loop is certified
    optimal, and the witness is trivially minimal-spill (zero spills).
    Phase B failing at some II does {e not} refute that II (a spilled or
    differently-routed schedule might exist), it only leaves the loop
    uncertified with [lb] as the reported bound.

    Everything is deterministic: node orders are derived from sorted
    ids, the effort budget counts search steps (no wall clock), and no
    hash-table iteration order reaches any result. *)

type witness = {
  w_ii : int;  (** II of the witness schedule *)
  w_outcome : Hcrf_sched.Engine.outcome;
      (** spill-free schedule in engine format: passes [Validate.check]
          and can be fed to [Pipe_exec] / metrics like any heuristic
          outcome ([seconds] and search [stats] are zeroed) *)
}

type t = {
  x_mii : int;  (** [Mii] floor the search started from *)
  x_bounds : Hcrf_sched.Mii.bounds;  (** of the original graph *)
  x_lb : int;
      (** certified lower bound: every II below it was refuted (when
          [x_lb_exhausted]); no schedule — spilled or not — exists below
          it *)
  x_lb_exhausted : bool;
      (** false when the budget tripped while refuting [x_lb]: [x_lb] is
          then only the first II the search could not refute in time *)
  x_witness : witness option;  (** best real schedule found, lowest II *)
  x_optimal : bool;
      (** [x_lb_exhausted] and the witness achieves exactly [x_lb]: the
          minimal feasible II is certified (and the witness spill count,
          zero, is minimal at that II) *)
  x_steps : int;  (** deterministic branch-and-bound steps spent *)
  x_budget_hit : bool;
  x_sigmas : int;  (** location assignments explored in phase B *)
}

val pp : Format.formatter -> t -> unit

(** Deterministic effort budget (in search steps) that certifies every
    small workbench loop; see EXPERIMENTS.md for calibration. *)
val default_budget : int

(** Certify [ddg] (original operations only — raises [Invalid_argument]
    on scheduler-inserted kinds) for [config].

    [budget] bounds total search steps across both phases;
    [up_to] (default [mii + 30]) caps both the refutation sweep and the
    witness search — a typical caller passes the heuristic's achieved II
    since higher witnesses are uninteresting; [witness:false] skips
    phase B (lower bound only).  [trace] records the whole run as a
    [Phase Exact] span plus one [Exact_search] statistics event. *)
val solve :
  ?budget:int -> ?up_to:int -> ?witness:bool -> ?trace:Hcrf_obs.Trace.t ->
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t -> t
