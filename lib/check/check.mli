(** Differential fuzzing of the MIRS_HC scheduling pipeline.

    A campaign generates loops with {!Hcrf_workload.Genloop} across a
    deterministic sweep of generator parameters × machine
    configurations × scheduler options, runs each case through
    {!Hcrf_eval.Runner} and cross-checks the result against independent
    oracles:

    - {!Hcrf_sched.Validate.check} must accept the produced schedule;
    - {!Hcrf_pipesim.Pipe_exec} must reproduce {!Hcrf_pipesim.Ref_exec}
      values and memory at several iteration counts;
    - a warm replay through the case's (private) schedule cache must
      validate and be byte-identical to the cold outcome;
    - metamorphic twins (adjacency reorder; node renumbering) must
      schedule successfully, validate, execute correctly and agree on
      MII, and the reorder twin must keep the cache key (the cache
      replays the cold entry for it).  (Full II/spill equality under
      renumbering does *not* hold for this engine — cluster selection
      is id-sensitive — so the oracle deliberately checks the invariant
      that does hold; see DESIGN.md.)

    Every case runs under an exception barrier, so an engine crash is a
    [Crash] verdict, not a dead campaign.  Failing cases are fed to the
    minimizing {!Shrink}er and emitted as {!Repro} files.  Campaigns
    are deterministic: the same seed produces a byte-identical report
    for any [jobs] value. *)

module Ev = Hcrf_obs.Event

(** Named presets swept by {!campaign}. *)
val param_presets : (string * Hcrf_workload.Genloop.params) list

(** Generator presets biased towards exact-tractable loops (small,
    shallow, few invariants); the parameter sweep of campaigns that arm
    the {!Hcrf_exact} Optimality oracle.  Kept out of {!param_presets}
    so existing campaign case mappings are unchanged. *)
val small_exact_presets : (string * Hcrf_workload.Genloop.params) list

val config_names : string list

(** Generalized-hierarchy configurations (per-bank access-port
    constraints, third level).  Kept out of {!config_names} so existing
    campaign case mappings are unchanged; pass
    {!generalized_config_presets} as [config_presets] to sweep them. *)
val generalized_config_names : string list

val generalized_config_presets :
  (string * Hcrf_machine.Config.t) list lazy_t

val options_presets : (string * Hcrf_sched.Engine.options) list

type verdict = { kind : Ev.fuzz_verdict; detail : string }

(** Failure = any verdict the oracles can falsify.  [Pass] is success;
    [No_schedule] (the engine giving up after every escalation rung) is
    recorded in the taxonomy but is not an oracle failure. *)
val is_failure : Ev.fuzz_verdict -> bool

(** What the Optimality leg measured on one case (reported even when
    the leg passes — campaigns aggregate these into {!exact_summary}).
    The leg only runs on cases where the heuristic found a schedule. *)
type exact_case = {
  xc_lb : int;  (** certified II lower bound *)
  xc_exhausted : bool;
  xc_witness_ii : int option;
  xc_optimal : bool;  (** minimal II certified exactly *)
  xc_heur_ii : int;
  xc_heur_spills : int;  (** heuristic value + invariant spills *)
  xc_budget_hit : bool;
}

(** Run every oracle leg on one loop.  [cache] is the schedule cache
    the runner goes through (a fresh private one when omitted; sharing
    one across calls additionally exercises cross-case cache
    collisions).  [exact] arms the Optimality leg: the heuristic's II
    must never undercut the {!Hcrf_exact} certified lower bound (an
    exact-refuted II the heuristic claims to schedule is exactly such
    an undercut); the measurement lands in [exact_out] and the
    certification is recorded on [trace] as a [Phase Exact] span plus
    an [Exact_search] event. *)
val oracle :
  ?cache:Hcrf_cache.Cache.t -> ?exact:bool ->
  ?exact_out:exact_case option ref -> ?trace:Hcrf_obs.Trace.t ->
  opts:Hcrf_sched.Engine.options -> Hcrf_machine.Config.t ->
  Hcrf_ir.Loop.t -> verdict

type failure = {
  f_case : int;
  f_params : string;
  f_config : string;
  f_options : string;
  f_kind : Ev.fuzz_verdict;
  f_detail : string;  (** detail of the *shrunk* case *)
  f_loop : Hcrf_ir.Loop.t;  (** shrunk loop (original if shrinking off) *)
  f_lats : Hcrf_machine.Latencies.t;
  f_nodes : int;  (** node count after shrinking *)
  f_steps : int;  (** accepted shrink steps *)
}

(** Aggregate view of a campaign's Optimality legs. *)
type exact_summary = {
  xs_cases : int;  (** cases the exact leg ran on *)
  xs_certified : int;  (** minimal II certified exactly *)
  xs_budget : int;  (** budget trips (uncertified cases) *)
  xs_gaps : (int * int) list;
      (** II gap (heuristic - optimum) -> count, over certified cases,
          ascending *)
  xs_spills : int;
      (** heuristic spill ops on certified cases; the exact witnesses
          are spill-free, so this is the whole spill gap *)
}

type report = {
  r_seed : int;
  r_cases : int;
  r_counts : (string * int) list;  (** verdict name -> count, fixed order *)
  r_failures : failure list;       (** in case order *)
  r_exact : exact_summary option;  (** when the campaign armed [exact] *)
}

(** Deterministic rendering (no wall-clock, no absolute paths). *)
val pp_report : Format.formatter -> report -> unit

(** Run a campaign of [cases] cases.  [ctx] supplies [jobs] and the
    tracer (each case emits a [Fuzz] verdict event and, when shrinking,
    a [Shrink] event); its cache and options are *not* used — every
    case runs its own private cache and preset options, so user-level
    caching can never mask a divergence.  [corpus] writes a {!Repro}
    file per failure into the given directory. *)
val campaign :
  ?ctx:Hcrf_eval.Runner.Ctx.t -> ?shrink:bool -> ?corpus:string ->
  ?config_presets:(string * Hcrf_machine.Config.t) list ->
  ?param_presets:(string * Hcrf_workload.Genloop.params) list ->
  ?exact:bool -> ?max_shrink_evals:int -> seed:int -> cases:int -> unit ->
  report

(** Re-run the oracle on one reproducer.  With [cache], the runner goes
    through that (shared) cache — replaying a corpus must yield the
    same verdicts with and without one. *)
val replay_file :
  ?cache:Hcrf_cache.Cache.t -> Repro.t -> verdict

(** Replay every [*.repro] under a directory, in file-name order.
    Returns [(path, reproducer, verdict)] per file; parse errors fail
    the whole replay. *)
val replay_corpus :
  ?cache:Hcrf_cache.Cache.t -> string ->
  ((string * Repro.t * verdict) list, string) result

(** {1 Optimality-gap corpus}

    Reproducer cases tagged [Optimality] whose [detail] pins a measured
    heuristic gap ([gap=G heur_ii=H optimal_ii=L heur_spills=S]) rather
    than an oracle violation; they live in their own corpus directory
    and are replayed by recomputing the measurement, not through
    {!replay_corpus}. *)

(** Schedule heuristically (plain engine, the given options) and
    certify exactly, capped at the achieved II.  [Some] iff the loop is
    certified optimal and the heuristic's II has a gap of at least 1. *)
val measure_gap :
  opts:Hcrf_sched.Engine.options -> Hcrf_machine.Config.t ->
  Hcrf_ir.Loop.t ->
  (Hcrf_sched.Engine.outcome * Hcrf_exact.Exact.t) option

(** The pinned [detail] line of a gap measurement. *)
val gap_detail : Hcrf_sched.Engine.outcome * Hcrf_exact.Exact.t -> string

(** Sweep [cases] {!small_exact_presets} cases across the published
    configurations, shrink every case with a certified gap >= 1 (the
    shrinker keeps "still certified, still suboptimal" as the
    predicate) and return the reproducers, in case order. *)
val hunt_gaps : ?max_shrink_evals:int -> seed:int -> cases:int -> unit ->
  Repro.t list
