(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus bechamel micro-benchmarks of the scheduler itself.

   Usage:
     dune exec bench/main.exe                 # every paper experiment
     dune exec bench/main.exe -- tab6 fig6    # a subset
     dune exec bench/main.exe -- quick        # all, on a small suite
     dune exec bench/main.exe -- stats        # scheduler-effort counters
     dune exec bench/main.exe -- trace        # per-config event counters
     dune exec bench/main.exe -- json         # machine-readable cold/warm report
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Experiments: fig1 tab1 tab2 tab3 tab4 fig4 tab5 tab6 fig6 calib stats
   trace micro.  Every knob comes from the environment (one parser,
   [Hcrf_eval.Env]): HCRF_LOOPS=<n> overrides the loop count;
   HCRF_JOBS=<n> sets the worker-domain fan-out; HCRF_CACHE=<dir>
   enables the content-addressed schedule cache (HCRF_CACHE="" for
   in-memory only); HCRF_TRACE=<file> records a JSONL event trace
   (HCRF_TRACE="" for counters only).  Results are byte-identical with
   or without cache and trace; a final "cache:" line reports cache
   counters and a final "trace:" line the sorted event totals. *)

open Hcrf_eval

let time_section name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Fmt.pr "  [%s took %.1fs]@.@." name (Unix.gettimeofday () -. t0);
  r

let suite_size () =
  Option.value ~default:Hcrf_workload.Suite.paper_loop_count (Env.loops ())

let fig1 ~loops ~ctx () =
  time_section "fig1" (fun () ->
      Fmt.pr "%a@." Experiments.pp_figure1 (Experiments.figure1 ~ctx ~loops ()))

let tab1 ~loops ~ctx () =
  time_section "tab1" (fun () ->
      Fmt.pr "%a@." Experiments.pp_table1 (Experiments.table1 ~ctx ~loops ()))

let tab2 () =
  time_section "tab2" (fun () ->
      Fmt.pr "%a@."
        (Experiments.pp_hw_rows
           ~title:"Table 2: access time & area, equal-capacity RFs")
        (Experiments.table2 ()))

let tab3 ~loops ~ctx () =
  time_section "tab3" (fun () ->
      Fmt.pr "%a@." Experiments.pp_table3 (Experiments.table3 ~ctx ~loops ()))

let tab4 ~loops ~ctx () =
  time_section "tab4" (fun () ->
      Fmt.pr "%a@." Experiments.pp_table4 (Experiments.table4 ~ctx ~loops ()))

let fig4 ~loops ~ctx () =
  time_section "fig4" (fun () ->
      Fmt.pr "%a@." Experiments.pp_figure4 (Experiments.figure4 ~ctx ~loops ()))

let tab5 () =
  time_section "tab5" (fun () ->
      Fmt.pr "%a@."
        (Experiments.pp_hw_rows ~title:"Table 5: hardware evaluation")
        (Experiments.table5 ()))

let tab6 ~loops ~ctx () =
  time_section "tab6" (fun () ->
      Fmt.pr "%a@." Experiments.pp_table6 (Experiments.table6 ~ctx ~loops ()))

let fig6 ~loops ~ctx () =
  time_section "fig6" (fun () ->
      Fmt.pr "%a@." Experiments.pp_figure6 (Experiments.figure6 ~ctx ~loops ()))

let ablate ~loops ~ctx () =
  time_section "ablate" (fun () ->
      (* the ablation sweep is expensive: bound the sample *)
      let sample = List.filteri (fun i _ -> i < 150) loops in
      Fmt.pr "%a@." Experiments.pp_ablations
        (Experiments.ablations ~ctx ~loops:sample ()))

(* Scheduler-effort counters over the suite: how hard the engine worked
   (attempts, ejections, spill/communication insertions, II restarts,
   escalation retries).  A per-PR perf regression in the scheduler shows
   up here long before it shows up in wall-clock time. *)
let stats ~loops ~ctx () =
  time_section "stats" (fun () ->
      List.iter
        (fun name ->
          let config = Hcrf_model.Presets.published name in
          let results = Runner.run_suite ~ctx config loops in
          let a = Runner.aggregate config results in
          (* the cache line shows the counters accumulated so far in
             this invocation (the cache is shared by all sections) *)
          let cache_now =
            Option.map Hcrf_cache.Cache.stats ctx.Runner.Ctx.cache
          in
          Fmt.pr "%a@." (Metrics.pp_aggregate ?cache:cache_now ?trace:None) a;
          Fmt.pr "  sched-seconds=%.2f jobs=%d@." a.Metrics.sched_seconds
            ctx.Runner.Ctx.jobs)
        [ "S64"; "4C32"; "4C32S16" ])

(* Per-config event counters from the tracing subsystem: what the
   scheduler actually *did* (placements, ejections, spill and
   communication insertions, cache traffic, phase time), keyed and
   sorted for byte-comparable diffs.  Each config gets a fresh
   [Counters] sink so its histogram stands alone. *)
let trace_sec ~loops ~ctx () =
  time_section "trace" (fun () ->
      List.iter
        (fun name ->
          let config = Hcrf_model.Presets.published name in
          let counters = Hcrf_obs.Counters.create () in
          let tracer =
            Hcrf_obs.Tracer.make [ Hcrf_obs.Tracer.Counters counters ]
          in
          let ctx = { ctx with Runner.Ctx.tracer } in
          let results = Runner.run_suite ~ctx config loops in
          let a = Runner.aggregate config results in
          Fmt.pr "%a@." (Metrics.pp_aggregate ?cache:None ~trace:counters) a)
        [ "S64"; "4C32S16" ])

(* Machine-readable benchmark report (the sched-core speedup gate):
   for each configuration, one cold suite run against a fresh in-memory
   cache and one warm run against the same cache, wall-clock seconds
   each, plus the per-phase nanosecond totals from the tracing
   subsystem accumulated over both runs.  A single JSON document on
   stdout, schema "hcrf-bench/1"; not part of "all" (it re-runs the
   suite twice per config). *)
let json_sec ~loops () =
  let jobs = Env.jobs () in
  let run name =
    let config = Hcrf_model.Presets.published name in
    let counters = Hcrf_obs.Counters.create () in
    let tracer = Hcrf_obs.Tracer.make [ Hcrf_obs.Tracer.Counters counters ] in
    let cache = Hcrf_cache.Cache.create () in
    let ctx = Runner.Ctx.make ~cache ~jobs ~tracer () in
    let wall f =
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Unix.gettimeofday () -. t0
    in
    let cold_wall_s = wall (fun () -> Runner.run_suite ~ctx config loops) in
    let warm_wall_s = wall (fun () -> Runner.run_suite ~ctx config loops) in
    Hcrf_obs.Tracer.close tracer;
    { Hcrf_obs.Bench_report.config = name; loops = List.length loops; jobs;
      sum_ii = None; cold_wall_s; warm_wall_s;
      phase_ns = Hcrf_obs.Counters.timings counters }
  in
  print_string
    (Hcrf_obs.Bench_report.to_string
       (List.map run [ "S64"; "4C32"; "4C32S16" ]))

(* Workbench statistics: how the synthetic suite compares with the
   distributions the paper reports for the Perfect Club loops. *)
let calib ~loops () =
  time_section "calib" (fun () ->
      let n = List.length loops in
      let ops =
        List.fold_left
          (fun acc (l : Hcrf_ir.Loop.t) ->
            acc + Hcrf_ir.Ddg.num_nodes l.Hcrf_ir.Loop.ddg)
          0 loops
      in
      let recs =
        List.length
          (List.filter
             (fun (l : Hcrf_ir.Loop.t) ->
               Hcrf_ir.Scc.has_recurrence l.Hcrf_ir.Loop.ddg)
             loops)
      in
      Fmt.pr
        "Workbench: %d loops, %.1f ops/loop, %.1f%% with recurrences@." n
        (float_of_int ops /. float_of_int n)
        (100. *. float_of_int recs /. float_of_int n))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: scheduler component costs and ablations  *)

let micro () =
  let open Bechamel in
  let kernel name = Hcrf_workload.Kernels.find name in
  let schedule_test ~kernel:kname ~config:cname =
    let config = Hcrf_model.Presets.published cname in
    let loop = kernel kname in
    Test.make
      ~name:(Fmt.str "mirs_hc/%s/%s" kname cname)
      (Staged.stage (fun () ->
           match Hcrf_core.Mirs_hc.schedule config loop.Hcrf_ir.Loop.ddg with
           | Ok _ -> ()
           | Error _ -> failwith "no schedule"))
  in
  let mii_test =
    let config = Hcrf_model.Presets.published "S128" in
    let loop = kernel "fir5" in
    Test.make ~name:"mii/fir5"
      (Staged.stage (fun () ->
           ignore (Hcrf_sched.Mii.compute config loop.Hcrf_ir.Loop.ddg)))
  in
  let order_test =
    let config = Hcrf_model.Presets.published "S128" in
    let loop = kernel "tree8" in
    Test.make ~name:"order/tree8"
      (Staged.stage (fun () ->
           ignore (Hcrf_sched.Order.compute config loop.Hcrf_ir.Loop.ddg)))
  in
  let cacti_test =
    let config = Hcrf_model.Presets.published "4C16S16" in
    Test.make ~name:"cacti/4C16S16"
      (Staged.stage (fun () -> ignore (Hcrf_model.Cacti.estimate config)))
  in
  let cache_test =
    Test.make ~name:"cache/stream"
      (Staged.stage (fun () ->
           let c = Hcrf_memsim.Cache.create () in
           for i = 0 to 4095 do
             ignore (Hcrf_memsim.Cache.access c (i * 8))
           done))
  in
  (* ablation: the full iterative scheduler vs the non-iterative
     baseline on the same loop and configuration *)
  let ablation_test ~name ~opts =
    let config = Hcrf_model.Presets.published "2C32S32" in
    let loop = kernel "fir5" in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Hcrf_sched.Engine.schedule ~opts config loop.Hcrf_ir.Loop.ddg)))
  in
  let tests =
    [
      schedule_test ~kernel:"daxpy" ~config:"S128";
      schedule_test ~kernel:"fir5" ~config:"4C32";
      schedule_test ~kernel:"tree8" ~config:"4C16S16";
      schedule_test ~kernel:"cmul" ~config:"8C16S16";
      mii_test;
      order_test;
      cacti_test;
      cache_test;
      ablation_test ~name:"ablate/backtracking"
        ~opts:Hcrf_sched.Engine.default_options;
      ablation_test ~name:"ablate/non-iterative"
        ~opts:
          {
            Hcrf_sched.Engine.default_options with
            backtracking = false;
            ordering = `Topological;
          };
    ]
  in
  Fmt.pr "@[<v>Micro-benchmarks (bechamel, monotonic clock)@,";
  List.iter
    (fun test ->
      let cfg =
        Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ()
      in
      let results =
        Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
      in
      Hashtbl.iter
        (fun name raw ->
          let ols =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          in
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.pr "  %-28s %12.1f ns/run@," name est
          | Some _ | None -> Fmt.pr "  %-28s (no estimate)@," name)
        results)
    tests;
  Fmt.pr "@]@."

(* ------------------------------------------------------------------ *)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  Env.warn_unknown ();
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let quick = List.mem "quick" args in
  let args = List.filter (fun a -> a <> "quick") args in
  let selected = if args = [] then [ "all" ] else args in
  let wants name = List.mem name selected || List.mem "all" selected in
  (* quick caps the suite at 120 loops but still honours an explicit
     HCRF_LOOPS (the dune smoke test runs "quick" with HCRF_LOOPS=20) *)
  let n =
    if quick then Option.value ~default:120 (Env.loops ())
    else suite_size ()
  in
  let tracer = Env.tracer () in
  let ctx =
    Runner.Ctx.make ?cache:(Env.cache ()) ~jobs:(Env.jobs ()) ~tracer ()
  in
  let needs_loops =
    List.exists wants
      [ "fig1"; "tab1"; "tab3"; "tab4"; "fig4"; "tab6"; "fig6"; "calib";
        "ablate"; "stats"; "trace" ]
    || List.mem "json" selected
  in
  let loops =
    if needs_loops then begin
      (* a json-only invocation must emit nothing but the JSON document *)
      if selected <> [ "json" ] then
        Fmt.pr "Generating the %d-loop workbench (%d jobs)...@." n
          ctx.Runner.Ctx.jobs;
      Hcrf_workload.Suite.generate ~n ()
    end
    else []
  in
  if wants "calib" then calib ~loops ();
  if wants "fig1" then fig1 ~loops ~ctx ();
  if wants "tab1" then tab1 ~loops ~ctx ();
  if wants "tab2" then tab2 ();
  if wants "tab3" then tab3 ~loops ~ctx ();
  if wants "tab4" then tab4 ~loops ~ctx ();
  if wants "fig4" then fig4 ~loops ~ctx ();
  if wants "tab5" then tab5 ();
  if wants "tab6" then tab6 ~loops ~ctx ();
  if wants "fig6" then fig6 ~loops ~ctx ();
  if wants "ablate" then ablate ~loops ~ctx ();
  if wants "stats" then stats ~loops ~ctx ();
  if wants "trace" then trace_sec ~loops ~ctx ();
  if List.mem "json" selected then json_sec ~loops ();
  if wants "micro" then micro ();
  (match ctx.Runner.Ctx.cache with
  | None -> ()
  | Some c ->
    Fmt.pr "cache: %a@." Hcrf_cache.Cache.pp_stats (Hcrf_cache.Cache.stats c));
  (match Hcrf_obs.Tracer.counters tracer with
  | None -> ()
  | Some c -> Fmt.pr "trace: %a@." Hcrf_obs.Counters.pp c);
  Hcrf_obs.Tracer.close tracer
