(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.  Wall-clock measurement of the system itself lives in
   perfbench/ (see BENCHMARK.json); this harness prints results only.

   Usage:
     dune exec bench/main.exe                 # every paper experiment
     dune exec bench/main.exe -- tab6 fig6    # a subset
     dune exec bench/main.exe -- quick        # all, on a small suite
     dune exec bench/main.exe -- stats        # scheduler-effort counters
     dune exec bench/main.exe -- trace        # per-config event counters

   Sections: calib fig1 tab1 tab2 tab3 tab4 fig4 tab5 tab6 fig6 ablate
   stats trace, plus "all" (the default) and "quick"; any other name is
   refused with exit code 2.  Every knob comes from the environment (one
   parser, [Hcrf_eval.Env]): HCRF_LOOPS=<n> overrides the loop count;
   HCRF_JOBS=<n> sets the worker-domain fan-out; HCRF_CACHE=<dir>
   enables the content-addressed schedule cache (HCRF_CACHE="" for
   in-memory only); HCRF_TRACE=<file> records a JSONL event trace
   (HCRF_TRACE="" for counters only).  Results are byte-identical with
   or without cache and trace; a final "cache:" line reports cache
   counters and a final "trace:" line the sorted event totals. *)

open Hcrf_eval

let suite_size () =
  Option.value ~default:Hcrf_workload.Suite.paper_loop_count (Env.loops ())

let fig1 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_figure1 (Experiments.figure1 ~ctx ~loops ())

let tab1 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_table1 (Experiments.table1 ~ctx ~loops ())

let tab2 ~loops:_ ~ctx:_ =
  Fmt.pr "%a@."
    (Experiments.pp_hw_rows
       ~title:"Table 2: access time & area, equal-capacity RFs")
    (Experiments.table2 ())

let tab3 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_table3 (Experiments.table3 ~ctx ~loops ())

let tab4 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_table4 (Experiments.table4 ~ctx ~loops ())

let fig4 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_figure4 (Experiments.figure4 ~ctx ~loops ())

let tab5 ~loops:_ ~ctx:_ =
  Fmt.pr "%a@."
    (Experiments.pp_hw_rows ~title:"Table 5: hardware evaluation")
    (Experiments.table5 ())

let tab6 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_table6 (Experiments.table6 ~ctx ~loops ())

let fig6 ~loops ~ctx =
  Fmt.pr "%a@." Experiments.pp_figure6 (Experiments.figure6 ~ctx ~loops ())

let ablate ~loops ~ctx =
  (* the ablation sweep is expensive: bound the sample *)
  let sample = List.filteri (fun i _ -> i < 150) loops in
  Fmt.pr "%a@." Experiments.pp_ablations
    (Experiments.ablations ~ctx ~loops:sample ())

(* Scheduler-effort counters over the suite: how hard the engine worked
   (attempts, ejections, spill/communication insertions, II restarts,
   escalation retries).  A per-PR perf regression in the scheduler shows
   up here long before it shows up in wall-clock time. *)
let stats ~loops ~ctx =
  List.iter
    (fun name ->
      let config = Hcrf_model.Presets.published name in
      let a = Runner.run_suite ~ctx config loops in
      (* the cache line shows the counters accumulated so far in this
         invocation (the cache is shared by all sections) *)
      let cache_now =
        Option.map Hcrf_cache.Cache.stats ctx.Runner.Ctx.cache
      in
      Fmt.pr "%a@." (Metrics.pp_aggregate ?cache:cache_now ?trace:None) a;
      Fmt.pr "  sched-seconds=%.2f jobs=%d@." a.Metrics.sched_seconds
        ctx.Runner.Ctx.jobs)
    [ "S64"; "4C32"; "4C32S16" ]

(* Per-config event counters from the tracing subsystem: what the
   scheduler actually *did* (placements, ejections, spill and
   communication insertions, cache traffic, phase time), keyed and
   sorted for byte-comparable diffs.  Each config gets a fresh
   [Counters] sink so its histogram stands alone. *)
let trace ~loops ~ctx =
  List.iter
    (fun name ->
      let config = Hcrf_model.Presets.published name in
      let counters = Hcrf_obs.Counters.create () in
      let tracer =
        Hcrf_obs.Tracer.make [ Hcrf_obs.Tracer.Counters counters ]
      in
      let ctx = { ctx with Runner.Ctx.tracer } in
      let a = Runner.run_suite ~ctx config loops in
      Fmt.pr "%a@." (Metrics.pp_aggregate ?cache:None ~trace:counters) a)
    [ "S64"; "4C32S16" ]

(* Workbench statistics: how the synthetic suite compares with the
   distributions the paper reports for the Perfect Club loops. *)
let calib ~loops ~ctx:_ =
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
  Fmt.pr "Workbench: %d loops, %.1f ops/loop, %.1f%% with recurrences@." n
    (float_of_int ops /. float_of_int n)
    (100. *. float_of_int recs /. float_of_int n)

(* Every section in output order: its name, whether it reads the
   workbench, and its body.  Each section's output ends in a blank
   line. *)
let sections =
  [ ("calib", true, calib); ("fig1", true, fig1); ("tab1", true, tab1);
    ("tab2", false, tab2); ("tab3", true, tab3); ("tab4", true, tab4);
    ("fig4", true, fig4); ("tab5", false, tab5); ("tab6", true, tab6);
    ("fig6", true, fig6); ("ablate", true, ablate); ("stats", true, stats);
    ("trace", true, trace) ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  Env.warn_unknown ();
  let args =
    List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv))
  in
  let valid =
    "quick" :: "all" :: List.map (fun (name, _, _) -> name) sections
  in
  (match List.filter (fun a -> not (List.mem a valid)) args with
  | [] -> ()
  | unknown ->
    Fmt.epr "main.exe: unknown section %s; expected any of: %s@."
      (String.concat ", " unknown) (String.concat " " valid);
    exit 2);
  let quick = List.mem "quick" args in
  let selected = List.filter (fun a -> a <> "quick") args in
  let wants name =
    selected = [] || List.mem "all" selected || List.mem name selected
  in
  let chosen = List.filter (fun (name, _, _) -> wants name) sections in
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
  let loops =
    if List.exists (fun (_, reads, _) -> reads) chosen then begin
      Fmt.pr "Generating the %d-loop workbench (%d jobs)...@." n
        ctx.Runner.Ctx.jobs;
      Hcrf_workload.Suite.generate ~n ()
    end
    else []
  in
  List.iter (fun (_, _, run) -> run ~loops ~ctx; Fmt.pr "@.") chosen;
  (match ctx.Runner.Ctx.cache with
  | None -> ()
  | Some c ->
    Fmt.pr "cache: %a@." Hcrf_cache.Cache.pp_stats (Hcrf_cache.Cache.stats c));
  (match Hcrf_obs.Tracer.counters tracer with
  | None -> ()
  | Some c -> Fmt.pr "trace: %a@." Hcrf_obs.Counters.pp c);
  Hcrf_obs.Tracer.close tracer
