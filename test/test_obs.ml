(* Tests for the hcrf_obs tracing subsystem: counter semantics, the
   versioned JSONL schema (emission and strict validation), determinism
   of the Counters sink across job counts and cache states, purity of
   the null sink, byte-equivalence of the staged pipeline against plain
   suite evaluation, and the HCRF_* environment parser. *)

open Hcrf_eval
open Hcrf_obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* one of each event kind, in a fixed order *)
let all_events =
  [
    Event.II_try 7;
    Event.Place { node = 3; cycle = 12; cluster = 1 };
    Event.Place { node = 4; cycle = 0; cluster = -1 };
    Event.Eject { node = 3 };
    Event.Spill_insert { kind = Event.Value; inserted = 2 };
    Event.Spill_insert { kind = Event.Invariant; inserted = 1 };
    Event.Comm_insert Event.Store_r;
    Event.Comm_insert Event.Load_r;
    Event.Comm_insert Event.Move;
    Event.Regalloc_fail { bank = "cluster 0" };
    Event.Budget_escalate { rung = 2 };
    Event.Cache Event.Hit;
    Event.Cache Event.Miss;
    Event.Cache Event.Store;
    Event.Phase { phase = Event.Mii; ns = 1234 };
    Event.Phase { phase = Event.Exact; ns = 55 };
    Event.Fuzz Event.Pass;
    Event.Fuzz Event.Optimality;
    Event.Shrink { steps = 3 };
    Event.Exact_search { lb = 2; witness_ii = 2; steps = 901 };
    Event.Serve Event.Request;
    Event.Serve Event.Lru_hit;
    Event.Serve Event.Coalesced;
    Event.Incr { op = Event.Stage_hit; ns = 210 };
    Event.Incr { op = Event.Stage_miss; ns = 9 };
    Event.Incr { op = Event.Stage_recompute; ns = 42 };
  ]

(* ------------------------------------------------------------------ *)
(* Enum names *)

(* Every constructor of one enum: its table entry, [name] and [of_name]
   agree, and the names are distinct. *)
let check_names what table name of_name every =
  check_int (what ^ ": one table entry per constructor") (List.length every)
    (List.length table);
  List.iter
    (fun c ->
      let n = name c in
      check_str (what ^ ": name from the table") (List.assoc c table) n;
      check (what ^ ": " ^ n ^ " round-trips") true (of_name n = Some c))
    every;
  let names = List.map snd table in
  check_int (what ^ ": distinct names") (List.length names)
    (List.length (List.sort_uniq String.compare names));
  check (what ^ ": unknown name") true (of_name "no such name" = None)

let test_enum_names () =
  (* exhaustive on purpose: a new constructor stops this compiling
     until it is listed below *)
  let _ : Event.t -> unit = function
    | Event.Comm_insert (Store_r | Load_r | Move)
    | Cache (Hit | Miss | Store)
    | Spill_insert { kind = Value | Invariant; _ }
    | Phase { phase = Mii | Order | Schedule | Regalloc | Memsim | Exact; _ }
    | Incr { op = Stage_hit | Stage_miss | Stage_recompute; _ }
    | Serve
        ( Request | Lru_hit | Lru_miss | Disk_hit | Computed | Coalesced
        | Reject | Timeout )
    | Fuzz
        ( Pass | No_schedule | Invalid_schedule | Exec_mismatch
        | Metamorphic | Replay_divergence | Crash | Optimality )
    | II_try _ | Place _ | Eject _ | Regalloc_fail _ | Budget_escalate _
    | Shrink _ | Exact_search _ ->
      ()
  in
  let open Event in
  check_names "comm" comm_names comm_name comm_of_name
    [ Store_r; Load_r; Move ];
  check_names "cache_op" cache_op_names cache_op_name cache_op_of_name
    [ Hit; Miss; Store ];
  check_names "spill" spill_names spill_name spill_of_name
    [ Value; Invariant ];
  check_names "phase" phase_names phase_name phase_of_name
    [ Mii; Order; Schedule; Regalloc; Memsim; Exact ];
  check_names "incr_op" incr_op_names incr_op_name incr_op_of_name
    [ Stage_hit; Stage_miss; Stage_recompute ];
  check_names "serve_op" serve_op_names serve_op_name serve_op_of_name
    [ Request; Lru_hit; Lru_miss; Disk_hit; Computed; Coalesced; Reject;
      Timeout ];
  check_names "fuzz_verdict" fuzz_verdict_names fuzz_verdict_name
    fuzz_verdict_of_name
    [ Pass; No_schedule; Invalid_schedule; Exec_mismatch; Metamorphic;
      Replay_divergence; Crash; Optimality ]

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counters_histogram () =
  let c = Counters.create () in
  Counters.add_all c all_events;
  Alcotest.(check (list (pair string int)))
    "sorted keys and derived magnitudes"
    [
      ("budget.escalate", 1);
      ("cache.hit", 1);
      ("cache.miss", 1);
      ("cache.store", 1);
      ("comm.load_r", 1);
      ("comm.move", 1);
      ("comm.store_r", 1);
      ("eject", 1);
      ("exact", 1);
      ("exact.steps", 901);
      ("fuzz.optimality", 1);
      ("fuzz.pass", 1);
      ("ii_try", 1);
      ("incr.frontend.hit", 1);
      ("incr.frontend.miss", 1);
      ("incr.frontend.recompute", 1);
      ("phase.exact", 1);
      ("phase.mii", 1);
      ("place", 2);
      ("regalloc.fail", 1);
      ("serve.coalesced", 1);
      ("serve.lru_hit", 1);
      ("serve.request", 1);
      ("shrink", 1);
      ("shrink.steps", 3);
      ("spill.invariant", 1);
      ("spill.invariant.nodes", 1);
      ("spill.value", 1);
      ("spill.value.nodes", 2);
    ]
    (Counters.counts c);
  (* derived .nodes/.steps magnitudes are not events *)
  check_int "total events" (List.length all_events) (Counters.total_events c);
  Alcotest.(check (list (pair string int)))
    "phase and stage wall-clock lands in timings, not counts"
    [
      ("incr.frontend.hit", 210);
      ("incr.frontend.miss", 9);
      ("incr.frontend.recompute", 42);
      ("phase.exact", 55);
      ("phase.mii", 1234);
    ]
    (Counters.timings c);
  let c' = Counters.create () in
  Counters.add_all c' all_events;
  check "equal counts" true (Counters.equal_counts c c');
  (* timings are excluded from the equality contract *)
  Counters.add c' (Event.Phase { phase = Event.Mii; ns = 9999 });
  check "extra span breaks nothing but another count does" false
    (Counters.equal_counts c c');
  Alcotest.(check string)
    "pp is sorted key=value"
    "budget.escalate=1 cache.hit=1 cache.miss=1 cache.store=1 comm.load_r=1 \
     comm.move=1 comm.store_r=1 eject=1 exact=1 exact.steps=901 \
     fuzz.optimality=1 fuzz.pass=1 ii_try=1 incr.frontend.hit=1 \
     incr.frontend.miss=1 incr.frontend.recompute=1 phase.exact=1 phase.mii=1 \
     place=2 regalloc.fail=1 serve.coalesced=1 serve.lru_hit=1 \
     serve.request=1 shrink=1 shrink.steps=3 spill.invariant=1 \
     spill.invariant.nodes=1 spill.value=1 spill.value.nodes=2"
    (Fmt.str "%a" Counters.pp c)

(* ------------------------------------------------------------------ *)
(* JSONL: golden schema *)

let golden_lines =
  [
    {|{"loop":"k1","ev":"ii_try","ii":7}|};
    {|{"loop":"k1","ev":"place","node":3,"cycle":12,"cluster":1}|};
    {|{"loop":"k1","ev":"place","node":4,"cycle":0,"cluster":-1}|};
    {|{"loop":"k1","ev":"eject","node":3}|};
    {|{"loop":"k1","ev":"spill_insert","kind":"value","inserted":2}|};
    {|{"loop":"k1","ev":"spill_insert","kind":"invariant","inserted":1}|};
    {|{"loop":"k1","ev":"comm_insert","kind":"store_r"}|};
    {|{"loop":"k1","ev":"comm_insert","kind":"load_r"}|};
    {|{"loop":"k1","ev":"comm_insert","kind":"move"}|};
    {|{"loop":"k1","ev":"regalloc_fail","bank":"cluster 0"}|};
    {|{"loop":"k1","ev":"budget_escalate","rung":2}|};
    {|{"loop":"k1","ev":"cache","op":"hit"}|};
    {|{"loop":"k1","ev":"cache","op":"miss"}|};
    {|{"loop":"k1","ev":"cache","op":"store"}|};
    {|{"loop":"k1","ev":"phase","phase":"mii","ns":1234}|};
    {|{"loop":"k1","ev":"phase","phase":"exact","ns":55}|};
    {|{"loop":"k1","ev":"fuzz","verdict":"pass"}|};
    {|{"loop":"k1","ev":"fuzz","verdict":"optimality"}|};
    {|{"loop":"k1","ev":"shrink","steps":3}|};
    {|{"loop":"k1","ev":"exact_search","lb":2,"witness_ii":2,"steps":901}|};
    {|{"loop":"k1","ev":"serve","op":"request"}|};
    {|{"loop":"k1","ev":"serve","op":"lru_hit"}|};
    {|{"loop":"k1","ev":"serve","op":"coalesced"}|};
    {|{"loop":"k1","ev":"incr","op":"hit","ns":210}|};
    {|{"loop":"k1","ev":"incr","op":"miss","ns":9}|};
    {|{"loop":"k1","ev":"incr","op":"recompute","ns":42}|};
  ]

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> go (l :: acc)
      in
      go [])

let test_jsonl_golden () =
  check_str "header line is the versioned schema tag"
    {|{"schema":"hcrf-trace","version":3}|} Jsonl.header_line;
  List.iteri
    (fun i ev ->
      check_str
        (Fmt.str "golden line %d" i)
        (List.nth golden_lines i)
        (Jsonl.line_of_event ~label:"k1" ev))
    all_events;
  (* writer output = header + golden lines, and the reader accepts
     exactly that file *)
  let path = Filename.temp_file "hcrf-obs-test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w = Jsonl.create path in
  List.iter (Jsonl.write w ~label:"k1") all_events;
  check_int "written counts events" (List.length all_events) (Jsonl.written w);
  Jsonl.close w;
  Alcotest.(check (list string))
    "file content is the golden file"
    (Jsonl.header_line :: golden_lines)
    (read_lines path);
  (match Jsonl.read_file path with
  | Error m -> Alcotest.failf "round-trip rejected: %s" m
  | Ok events ->
    check "round-trip preserves every event" true
      (events = List.map (fun ev -> ("k1", ev)) all_events));
  check "validate_file counts events" true
    (Jsonl.validate_file path = Ok (List.length all_events))

let test_jsonl_escaping () =
  let label = "we\"ird\\la\tbel" in
  let line = Jsonl.line_of_event ~label (Event.II_try 3) in
  match Jsonl.event_of_line line with
  | Error m -> Alcotest.failf "escaped label rejected: %s" m
  | Ok (l, ev) ->
    check_str "label round-trips through escaping" label l;
    check "event preserved" true (ev = Event.II_try 3)

let test_jsonl_rejects () =
  let bad =
    [
      ("truncated object", {|{"loop":"x","ev":"ii_try","ii":7|});
      ("missing field", {|{"loop":"x","ev":"ii_try"}|});
      ("extra field", {|{"loop":"x","ev":"ii_try","ii":7,"extra":1}|});
      ("wrong field type", {|{"loop":"x","ev":"ii_try","ii":"7"}|});
      ("unknown kind", {|{"loop":"x","ev":"warp","ii":7}|});
      ("missing loop", {|{"ev":"ii_try","ii":7}|});
      ("duplicate key", {|{"loop":"x","loop":"y","ev":"ii_try","ii":7}|});
      ("trailing garbage", {|{"loop":"x","ev":"ii_try","ii":7} oops|});
      ("bad enum value", {|{"loop":"x","ev":"cache","op":"evict"}|});
      ("nested value", {|{"loop":"x","ev":"ii_try","ii":{"v":7}}|});
      ("bad fuzz verdict", {|{"loop":"x","ev":"fuzz","verdict":"maybe"}|});
      ("bad phase name", {|{"loop":"x","ev":"phase","phase":"solve","ns":5}|});
      ( "exact_search missing field",
        {|{"loop":"x","ev":"exact_search","lb":2,"steps":9}|} );
      ( "exact_search extra field",
        {|{"loop":"x","ev":"exact_search","lb":2,"witness_ii":2,"steps":9,"sigmas":1}|}
      );
      ("bad serve op", {|{"loop":"x","ev":"serve","op":"warm"}|});
      ("serve extra field", {|{"loop":"x","ev":"serve","op":"request","n":1}|});
      ( "removed incr stage field",
        {|{"loop":"x","ev":"incr","stage":"frontend","op":"hit","ns":1}|} );
      ( "removed extract stage",
        {|{"loop":"x","ev":"incr","stage":"extract","op":"hit","ns":1}|} );
      ( "bad incr op",
        {|{"loop":"x","ev":"incr","op":"warm","ns":1}|} );
      ( "incr missing ns",
        {|{"loop":"x","ev":"incr","op":"hit"}|} );
    ]
  in
  List.iter
    (fun (what, line) ->
      check what true (Result.is_error (Jsonl.event_of_line line)))
    bad;
  (* a file whose header claims another version is rejected at line 1,
     before any event is read: a future version, version 1, whose
     language still had the extract stage, and version 2, whose incr
     events still named their stage *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (what, version, line) ->
      let path = Filename.temp_file "hcrf-obs-test" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let oc = open_out path in
      Printf.fprintf oc "{\"schema\":\"hcrf-trace\",\"version\":%d}\n%s\n"
        version line;
      close_out oc;
      match Jsonl.read_file path with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error m ->
        check (what ^ ": error names line 1") true (contains m ":1:"))
    [ ("future schema version", 4, List.hd golden_lines);
      ( "version-1 trace with an extract event", 1,
        {|{"loop":"k1","ev":"incr","stage":"extract","op":"miss","ns":9}|} );
      ( "version-2 trace with a staged incr event", 2,
        {|{"loop":"k1","ev":"incr","stage":"sched","op":"hit","ns":9}|} ) ]

(* ------------------------------------------------------------------ *)
(* Determinism of the Counters sink *)

let small_suite = lazy (Hcrf_workload.Suite.generate ~n:16 ())

(* run the suite under a fresh Counters tracer and hand the sink back *)
let counters_of_run ?cache ~jobs config loops =
  let c = Counters.create () in
  let tracer = Tracer.make [ Tracer.Counters c ] in
  let ctx = Runner.Ctx.make ?cache ~jobs ~tracer () in
  ignore (Runner.run_suite ~ctx config loops);
  c

let test_counters_jobs_deterministic () =
  let config = Hcrf_model.Presets.published "4C32S16" in
  let loops = Lazy.force small_suite in
  (* cold (uncached) engine events: identical at any job count *)
  let c1 = counters_of_run ~jobs:1 config loops in
  let c4 = counters_of_run ~jobs:4 config loops in
  check "cold: jobs=1 and jobs=4 count the same events" true
    (Counters.equal_counts c1 c4);
  check "the engine emitted something" true (Counters.total_events c1 > 0);
  check "placements were recorded" true
    (List.mem_assoc "place" (Counters.counts c1));
  (* warm cache: every lookup hits, again identically at any job count *)
  let cache = Hcrf_cache.Cache.create () in
  let ctx = Runner.Ctx.make ~cache () in
  ignore (Runner.run_suite ~ctx config loops);
  let w1 = counters_of_run ~cache ~jobs:1 config loops in
  let w4 = counters_of_run ~cache ~jobs:4 config loops in
  check "warm: jobs=1 and jobs=4 count the same events" true
    (Counters.equal_counts w1 w4);
  check_int "warm runs are pure cache hits"
    (List.length loops)
    (List.assoc "cache.hit" (Counters.counts w1));
  check "warm runs re-run no scheduler" false
    (List.mem_assoc "place" (Counters.counts w1))

(* The null tracer must not perturb results: aggregates of an untraced
   run, a null-traced run and a counter-traced run are byte-identical
   (scheduler wall-clock scrubbed — both sides are live runs). *)
let scrub (a : Metrics.aggregate) = { a with Metrics.sched_seconds = 0. }
let bytes_of a = Marshal.to_string (scrub a) []

let test_null_sink_purity () =
  let config = Hcrf_model.Presets.published "S64" in
  let loops = Lazy.force small_suite in
  let agg ctx = Runner.run_suite ~ctx config loops in
  let untraced = agg (Runner.Ctx.make ()) in
  let null_traced = agg (Runner.Ctx.make ~tracer:Tracer.null ()) in
  let counter_traced =
    agg
      (Runner.Ctx.make
         ~tracer:(Tracer.make [ Tracer.Counters (Counters.create ()) ])
         ())
  in
  check "null tracer is the default" true
    (bytes_of untraced = bytes_of null_traced);
  check "counting changes no aggregate field" true
    (bytes_of untraced = bytes_of counter_traced)

(* ------------------------------------------------------------------ *)
(* JSONL traces across job counts: replay/merge equivalence *)

let test_jsonl_replay_merge () =
  let config = Hcrf_model.Presets.published "4C32" in
  let loops = Hcrf_workload.Suite.generate ~n:12 () in
  let traced_run jobs =
    let path = Filename.temp_file "hcrf-obs-replay" ".jsonl" in
    let c = Counters.create () in
    let tracer =
      Tracer.make [ Tracer.Counters c; Tracer.Jsonl (Jsonl.create path) ]
    in
    let ctx = Runner.Ctx.make ~jobs ~tracer () in
    ignore (Runner.run_suite ~ctx config loops);
    Tracer.close tracer;
    (path, c)
  in
  let path1, c1 = traced_run 1 in
  let path4, c4 = traced_run 4 in
  Fun.protect ~finally:(fun () -> Sys.remove path1; Sys.remove path4)
  @@ fun () ->
  check "live counters identical across job counts" true
    (Counters.equal_counts c1 c4);
  (* replaying the jobs=4 file reproduces the jobs=1 totals *)
  (match Jsonl.read_file path4 with
  | Error m -> Alcotest.failf "jobs=4 trace invalid: %s" m
  | Ok events ->
    let replayed = Counters.create () in
    Counters.add_all replayed (List.map snd events);
    check "jobs=4 file replays to the jobs=1 totals" true
      (Counters.equal_counts c1 replayed));
  (* input-order commits: the two files list the same events in the
     same order, phase spans (wall-clock payload) aside *)
  let deterministic path =
    match Jsonl.read_file path with
    | Error m -> Alcotest.failf "%s invalid: %s" path m
    | Ok events ->
      List.filter
        (fun (_, ev) -> match ev with Event.Phase _ -> false | _ -> true)
        events
  in
  check "event streams identical in input order" true
    (deterministic path1 = deterministic path4);
  check "validate counts every event" true
    (Jsonl.validate_file path1 = Ok (Counters.total_events c1))

(* ------------------------------------------------------------------ *)
(* Env: the HCRF_* parser *)

let test_env () =
  Unix.putenv "HCRF_LOOPS" "17";
  Alcotest.(check (option int)) "loops parses" (Some 17) (Env.loops ());
  Unix.putenv "HCRF_LOOPS" "2O0";
  Alcotest.(check (option int)) "typo'd loops ignored" None (Env.loops ());
  Unix.putenv "HCRF_JOBS" "3";
  check_int "jobs parses" 3 (Env.jobs ());
  Unix.putenv "HCRF_JOBS" "-1";
  check_int "non-positive jobs falls back" (Par.default_jobs ()) (Env.jobs ());
  Unix.putenv "HCRF_TRACE" "";
  check "empty trace = counters only" true (Env.trace () = Env.Counters_only);
  Unix.putenv "HCRF_TRACE" "/tmp/t.jsonl";
  check "trace file spec" true (Env.trace () = Env.File "/tmp/t.jsonl");
  let t = Env.tracer_of_spec Env.Counters_only in
  check "counters-only tracer has a counters sink" true
    (Tracer.counters t <> None);
  check "counters-only tracer has no file" true (Tracer.jsonl_path t = None);
  check "off spec is the null tracer" true
    (Tracer.is_null (Env.tracer_of_spec Env.Off));
  (* the stage memo has no knob: a stale HCRF_INCR draws warn_unknown's
     warning instead of being silently inert *)
  check "HCRF_INCR is not a known variable" false
    (List.mem "HCRF_INCR" Env.known);
  Unix.putenv "HCRF_CONFIG" "4C16S16-L3:64@r2w1";
  check "config parses the full extended grammar" true
    (match Env.config () with
    | Some c ->
      Hcrf_machine.Rf.notation c.Hcrf_machine.Config.rf
      = "4C16S16-L3:64@r2w1"
    | None -> false);
  Unix.putenv "HCRF_CONFIG" "4C16S16@rinfwinf";
  check "config canonicalizes the uniform encoding" true
    (match Env.config () with
    | Some c -> Hcrf_machine.Rf.notation c.Hcrf_machine.Config.rf = "4C16S16"
    | None -> false);
  Unix.putenv "HCRF_CONFIG" "4C16S16-L3:";
  check "malformed config ignored with a warning" true
    (Env.config () = None);
  Unix.putenv "HCRF_CONFIG" ""

(* ------------------------------------------------------------------ *)
(* The three entry points share one answer path: run_suite's aggregate
   is the aggregate of the run_loop perfs and of the run_pipeline perfs,
   at any job count, cold or warm.  All three read their metrics from
   the schedule entries; only run_loop also replays the outcome.
   Binding prefetch on a clustered organization makes the engine insert
   spill code (in synth0005), so the memory-operation count of the
   final graph differs from the original's; one loop's key holds a
   failed entry. *)

let test_pipeline_matches_suite () =
  let config = Hcrf_model.Presets.published "2C32" in
  let scenario = Runner.Real { prefetch = true } in
  let loops = Lazy.force small_suite in
  let n = List.length loops and failed = 3 in
  let with_failed_entry jobs =
    let cache = Hcrf_cache.Cache.create () in
    let ctx = Runner.Ctx.make ~scenario ~cache ~jobs () in
    Hcrf_cache.Cache.add cache
      (Runner.cache_key ~scenario ~opts:ctx.Runner.Ctx.opts config
         (List.nth loops failed))
      (Hcrf_cache.Entry.Failed 7);
    ctx
  in
  let via_loop ctx =
    let rs = List.filter_map (Runner.run_loop ~ctx config) loops in
    check_int "run_loop drops the failed loop" (n - 1) (List.length rs);
    check "run_loop drops exactly the failed loop" false
      (List.exists (fun r -> r.Runner.loop == List.nth loops failed) rs);
    check "spill code reaches the final graphs" true
      (List.exists
         (fun r ->
           Hcrf_ir.Ddg.num_memory_ops r.Runner.outcome.Hcrf_sched.Engine.graph
           > Hcrf_ir.Ddg.num_memory_ops r.Runner.loop.Hcrf_ir.Loop.ddg)
         rs);
    Metrics.aggregate config (List.map (fun r -> r.Runner.perf) rs)
  in
  let via_pipeline ctx =
    let perfs, _ = Runner.run_pipeline ~ctx config loops in
    check "run_pipeline: None for exactly the failed loop" true
      (List.equal Bool.equal
         (List.map Option.is_none perfs)
         (List.init n (fun i -> i = failed)));
    Metrics.aggregate config (List.filter_map Fun.id perfs)
  in
  List.iter
    (fun jobs ->
      (* a cold and a warm pass of one entry point over its own cache *)
      let passes run =
        let ctx = with_failed_entry jobs in
        let cold = run ctx in
        (cold, run ctx)
      in
      let suite_cold, suite_warm =
        passes (fun ctx -> Runner.run_suite ~ctx config loops)
      in
      check_int "run_suite drops exactly the failed loop" (n - 1)
        suite_cold.Metrics.loops;
      List.iter
        (fun (name, run) ->
          let cold, warm = passes run in
          check
            (Fmt.str "jobs %d, cold: run_suite aggregate = %s perfs" jobs name)
            true
            (bytes_of suite_cold = bytes_of cold);
          check
            (Fmt.str "jobs %d, warm: run_suite aggregate = %s perfs" jobs name)
            true
            (bytes_of suite_warm = bytes_of warm))
        [ ("run_loop", via_loop); ("run_pipeline", via_pipeline) ])
    [ 1; 4 ];
  let stats ctx = snd (Runner.run_pipeline ~ctx config loops) in
  let none = stats (Runner.Ctx.make ~scenario ()) in
  check_int "no memo, no cache: nothing hits the store" 0
    none.Runner.store_hits;
  check_int "every distinct loop was computed" n
    Runner.(none.computed + none.coalesced);
  let ctx = with_failed_entry 1 in
  check_int "cold: the failed entry is the one store hit" 1
    (stats ctx).Runner.store_hits;
  check_int "warm: every schedule from the store" n
    (stats ctx).Runner.store_hits

(* Cache keys are what the on-disk stores are filed under: one kernel's
   key is pinned (it moves only with a new store version), and the keys
   a batch builds from its per-batch prefix are exactly [cache_key]'s,
   for the suite and the pipeline paths. *)
let test_batch_keys_are_cache_keys () =
  let opts = Hcrf_sched.Engine.default_options in
  check_str "daxpy on S64, ideal memory, default options"
    "3b665a09e8416130f66d7f3db6fda04e"
    (Hcrf_cache.Fingerprint.to_hex
       (Runner.cache_key ~scenario:Runner.Ideal ~opts
          (Hcrf_model.Presets.published "S64")
          (Hcrf_workload.Kernels.daxpy ())));
  let config = Hcrf_model.Presets.published "4C32S16" in
  let loops = Lazy.force small_suite in
  List.iter
    (fun (scenario, batch) ->
      let what = Runner.scenario_tag scenario in
      let cache = Hcrf_cache.Cache.create () in
      let ctx = Runner.Ctx.make ~scenario ~cache () in
      batch ctx;
      let stored = (Hcrf_cache.Cache.stats cache).Hcrf_cache.Cache.stores in
      check_int (what ^ ": one entry per loop") (List.length loops) stored;
      List.iter
        (fun l ->
          check
            (Fmt.str "%s: %s is stored under its cache_key" what
               (Hcrf_ir.Loop.name l))
            true
            (Option.is_some
               (Hcrf_cache.Cache.find cache
                  (Runner.cache_key ~scenario ~opts config l))))
        loops)
    [ (Runner.Ideal, fun ctx -> ignore (Runner.run_suite ~ctx config loops));
      ( Runner.Real { prefetch = true },
        fun ctx -> ignore (Runner.run_pipeline ~ctx config loops) ) ]

(* ------------------------------------------------------------------ *)

(* [f ()] with the executables' reporter writing into a buffer, then
   the reports it wrote, one a line, without their header; the caller's
   reporter and level are restored. *)
let with_reports f =
  let reporter = Logs.reporter () and level = Logs.level () in
  let buf = Buffer.create 65536 in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Logs.set_reporter reporter;
        Logs.set_level level)
      (fun () ->
        Logging.setup ~dst:(Format.formatter_of_buffer buf) ();
        f ())
  in
  let reports =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.rindex_opt l ']' with
           | Some i -> String.sub l (i + 2) (String.length l - i - 2)
           | None -> l)
  in
  (r, reports)

(* Two domains warn at once through the executables' reporter: with
   one [Format] queue shared unlocked, this raised [Stdlib.Queue.Empty]
   or garbled lines; through {!Logging.setup} every report arrives whole,
   one a line. *)
let test_logging_domain_safe () =
  let n = 5000 in
  let warn tag =
    match
      for i = 1 to n do
        Logs.warn (fun m -> m "%s %d" tag i)
      done
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let raised, reports =
    with_reports (fun () ->
        let other = Domain.spawn (fun () -> warn "b") in
        let here = warn "a" in
        [ here; Domain.join other ])
  in
  Alcotest.(check (list (option string))) "no report raised" [ None; None ]
    raised;
  let expected =
    List.concat_map
      (fun tag -> List.init n (fun i -> Fmt.str "%s %d" tag (i + 1)))
      [ "a"; "b" ]
    |> List.sort compare
  in
  Alcotest.(check (list string)) "every report, whole" expected
    (List.sort compare reports)

(* fir5 on 4C16S16@r0w1 has an operation with no read port to issue
   at: the engine refuses it before trying any II, so the warning says
   so and names no "up to II" bound that was never searched. *)
let test_unplaceable_warning () =
  let config = Hcrf_model.Presets.of_notation "4C16S16@r0w1" in
  let r, reports =
    with_reports (fun () ->
        Runner.run_loop config (Hcrf_workload.Kernels.find "fir5"))
  in
  check "no schedule" true (Option.is_none r);
  Alcotest.(check (list string)) "one warning, unplaceable"
    [ "no schedule for fir5 on 4C16S16@r0w1: fits at no II: an operation \
       has no location it can issue at" ]
    reports

let tests =
  [
    ("event: every enum name round-trips", `Quick, test_enum_names);
    ("counters: histogram and keys", `Quick, test_counters_histogram);
    ("jsonl: golden schema", `Quick, test_jsonl_golden);
    ("jsonl: string escaping", `Quick, test_jsonl_escaping);
    ("jsonl: rejects malformed input", `Quick, test_jsonl_rejects);
    ( "tracer: counters deterministic (jobs, cache)", `Slow,
      test_counters_jobs_deterministic );
    ("tracer: null sink purity", `Slow, test_null_sink_purity);
    ("jsonl: replay/merge across jobs", `Slow, test_jsonl_replay_merge);
    ("env: HCRF_* parsing", `Quick, test_env);
    ("runner: pipeline matches suite", `Slow, test_pipeline_matches_suite);
    ("runner: batch keys are cache keys, pinned", `Quick,
     test_batch_keys_are_cache_keys);
    ("logging: two domains warn at once", `Quick, test_logging_domain_safe);
    ("logging: an unplaceable loop warns it fits at no II", `Quick,
     test_unplaceable_warning);
  ]
