(** Typed scheduler/runner trace events — the [hcrf_obs] taxonomy.

    Events are plain data: no closures and no references into scheduler
    state, so a recorded trace can be buffered per work unit, replayed
    into any sink in a deterministic order, and serialized. *)

type comm = Store_r | Load_r | Move
type cache_op = Hit | Miss | Store
type spill = Value | Invariant
type phase = Mii | Order | Schedule | Regalloc | Memsim | Exact
type incr_stage = Frontend | Sched | Metric
type incr_op = Stage_hit | Stage_miss | Stage_recompute

type serve_op =
  | Request
  | Lru_hit
  | Lru_miss
  | Disk_hit
  | Computed
  | Coalesced
  | Reject
  | Timeout

type fuzz_verdict =
  | Pass
  | No_schedule
  | Invalid_schedule
  | Exec_mismatch
  | Metamorphic
  | Replay_divergence
  | Crash
  | Optimality

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

(* One (constructor, name) table per enum: both directions below read
   it, so every name is spelled exactly once. *)
let comm_names = [ (Store_r, "store_r"); (Load_r, "load_r"); (Move, "move") ]
let cache_op_names = [ (Hit, "hit"); (Miss, "miss"); (Store, "store") ]
let spill_names = [ (Value, "value"); (Invariant, "invariant") ]

let phase_names =
  [ (Mii, "mii"); (Order, "order"); (Schedule, "schedule");
    (Regalloc, "regalloc"); (Memsim, "memsim"); (Exact, "exact") ]

let incr_stage_names =
  [ (Frontend, "frontend"); (Sched, "sched"); (Metric, "metric") ]

let incr_op_names =
  [ (Stage_hit, "hit"); (Stage_miss, "miss"); (Stage_recompute, "recompute") ]

let serve_op_names =
  [ (Request, "request"); (Lru_hit, "lru_hit"); (Lru_miss, "lru_miss");
    (Disk_hit, "disk_hit"); (Computed, "computed"); (Coalesced, "coalesced");
    (Reject, "reject"); (Timeout, "timeout") ]

let fuzz_verdict_names =
  [ (Pass, "pass"); (No_schedule, "no_schedule");
    (Invalid_schedule, "invalid_schedule"); (Exec_mismatch, "exec_mismatch");
    (Metamorphic, "metamorphic"); (Replay_divergence, "replay_divergence");
    (Crash, "crash"); (Optimality, "optimality") ]

(* every enum is constant constructors only, so physical equality is
   constructor equality *)
let name_in table c = List.assq c table

let of_name_in table s =
  List.find_map (fun (c, n) -> if String.equal n s then Some c else None) table

let comm_name = name_in comm_names
let comm_of_name = of_name_in comm_names
let cache_op_name = name_in cache_op_names
let cache_op_of_name = of_name_in cache_op_names
let spill_name = name_in spill_names
let spill_of_name = of_name_in spill_names
let phase_name = name_in phase_names
let phase_of_name = of_name_in phase_names
let incr_stage_name = name_in incr_stage_names
let incr_stage_of_name = of_name_in incr_stage_names
let incr_op_name = name_in incr_op_names
let incr_op_of_name = of_name_in incr_op_names
let serve_op_name = name_in serve_op_names
let serve_op_of_name = of_name_in serve_op_names
let fuzz_verdict_name = name_in fuzz_verdict_names
let fuzz_verdict_of_name = of_name_in fuzz_verdict_names

(* Counter keys of the events that carry an enum, built once from the
   name tables so that [key] allocates nothing. *)
let keys prefix table = List.map (fun (c, n) -> (c, prefix ^ n)) table
let spill_keys = keys "spill." spill_names
let comm_keys = keys "comm." comm_names
let cache_keys = keys "cache." cache_op_names
let phase_keys = keys "phase." phase_names
let fuzz_keys = keys "fuzz." fuzz_verdict_names
let serve_keys = keys "serve." serve_op_names

let incr_keys =
  List.map
    (fun (stage, n) -> (stage, keys ("incr." ^ n ^ ".") incr_op_names))
    incr_stage_names

(** Stable counter key of an event; phase spans share one key per phase
    (their durations are accumulated separately by {!Counters}). *)
let key = function
  | II_try _ -> "ii_try"
  | Place _ -> "place"
  | Eject _ -> "eject"
  | Spill_insert { kind; _ } -> List.assq kind spill_keys
  | Comm_insert c -> List.assq c comm_keys
  | Regalloc_fail _ -> "regalloc.fail"
  | Budget_escalate _ -> "budget.escalate"
  | Cache op -> List.assq op cache_keys
  | Phase { phase; _ } -> List.assq phase phase_keys
  | Fuzz v -> List.assq v fuzz_keys
  | Shrink _ -> "shrink"
  | Exact_search _ -> "exact"
  | Serve op -> List.assq op serve_keys
  | Incr { stage; op; _ } -> List.assq op (List.assq stage incr_keys)
