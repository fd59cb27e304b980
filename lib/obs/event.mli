(** Typed scheduler/runner trace events — the [hcrf_obs] taxonomy.

    Events are plain data: no closures and no references into scheduler
    state, so a recorded trace can be buffered per work unit, replayed
    into any sink in a deterministic order, and serialized. *)

type comm = Store_r | Load_r | Move
type cache_op = Hit | Miss | Store
type spill = Value | Invariant
type phase = Mii | Order | Schedule | Regalloc | Memsim | Exact

(** One stage of the incremental evaluation pipeline
    ([Hcrf_eval.Runner.run_pipeline] / [Hcrf_incr.Pipeline]): frontend
    kernel compilation, scheduling, metric derivation. *)
type incr_stage = Frontend | Sched | Metric

(** One stage-memo step: the lookup hit, the lookup missed, or the
    stage function actually re-ran.  A miss that is then answered by
    another tier (e.g. a schedule-stage miss served from the shared
    schedule cache) emits [Stage_miss] without a [Stage_recompute]. *)
type incr_op = Stage_hit | Stage_miss | Stage_recompute

(** One step of the scheduling daemon's ([hcrf_serve]) tiered answer
    path: request accepted, answered by the in-memory LRU / the on-disk
    store / a fresh engine run, coalesced onto an in-flight computation,
    rejected (malformed frame or bad request), or timed out. *)
type serve_op =
  | Request
  | Lru_hit
  | Lru_miss
  | Disk_hit
  | Computed
  | Coalesced
  | Reject
  | Timeout

(** Outcome taxonomy of one differential-fuzzing case ([hcrf_check]). *)
type fuzz_verdict =
  | Pass
  | No_schedule  (** the escalation ladder still found no schedule *)
  | Invalid_schedule  (** [Validate.check] rejected the schedule *)
  | Exec_mismatch  (** pipeline execution diverged from the reference *)
  | Metamorphic  (** a metamorphic invariant was violated *)
  | Replay_divergence  (** warm-cache replay differed from the cold run *)
  | Crash  (** the case raised instead of returning *)
  | Optimality  (** the heuristic beat the certified II lower bound *)

type t =
  | II_try of int  (** one attempt of the II search starts at this II *)
  | Place of { node : int; cycle : int; cluster : int }
      (** node committed to the partial schedule ([cluster] = -1 for the
          shared/global location) *)
  | Eject of { node : int }  (** node descheduled by backtracking *)
  | Spill_insert of { kind : spill; inserted : int }
      (** one spill decision; [inserted] fresh nodes entered the graph *)
  | Comm_insert of comm  (** fresh StoreR / LoadR / Move routed in *)
  | Regalloc_fail of { bank : string }
      (** explicit rotating allocation failed for this bank *)
  | Budget_escalate of { rung : int }
      (** the runner's escalation ladder re-ran the engine (rung 1, 2) *)
  | Cache of cache_op  (** schedule-cache lookup or store *)
  | Phase of { phase : phase; ns : int }
      (** a timed span of one pipeline phase, in integer nanoseconds *)
  | Fuzz of fuzz_verdict
      (** one differential-fuzzing case finished with this verdict *)
  | Shrink of { steps : int }
      (** one failing case was minimized in this many accepted steps *)
  | Exact_search of { lb : int; witness_ii : int; steps : int }
      (** one exact-certification run finished: certified II lower
          bound, II of the witness schedule found (-1 when none), and
          branch-and-bound steps spent *)
  | Serve of serve_op
      (** one step of the scheduling daemon's tiered answer path *)
  | Incr of { stage : incr_stage; op : incr_op; ns : int }
      (** one stage-memo step of the incremental pipeline, with the
          time spent in the lookup or recomputation, in integer
          nanoseconds *)

(** {1 Names}

    One [(constructor, name)] table per enum, listing every constructor
    once; [x_name] and its inverse [x_of_name] both read it.  The names
    are the JSONL schema's enum values and the suffixes of counter
    keys. *)

val comm_names : (comm * string) list
val cache_op_names : (cache_op * string) list
val spill_names : (spill * string) list
val phase_names : (phase * string) list
val incr_stage_names : (incr_stage * string) list
val incr_op_names : (incr_op * string) list
val serve_op_names : (serve_op * string) list
val fuzz_verdict_names : (fuzz_verdict * string) list

val comm_name : comm -> string
val comm_of_name : string -> comm option
val cache_op_name : cache_op -> string
val cache_op_of_name : string -> cache_op option
val spill_name : spill -> string
val spill_of_name : string -> spill option
val phase_name : phase -> string
val phase_of_name : string -> phase option
val incr_stage_name : incr_stage -> string
val incr_stage_of_name : string -> incr_stage option
val incr_op_name : incr_op -> string
val incr_op_of_name : string -> incr_op option
val serve_op_name : serve_op -> string
val serve_op_of_name : string -> serve_op option
val fuzz_verdict_name : fuzz_verdict -> string
val fuzz_verdict_of_name : string -> fuzz_verdict option

(** Stable counter key of an event ("place", "comm.store_r",
    "cache.hit", "phase.mii", ...); phase spans share one key per phase
    — their durations are accumulated separately by {!Counters}. *)
val key : t -> string
