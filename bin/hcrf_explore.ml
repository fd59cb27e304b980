(* hcrf-explore: command-line front end to the library.

     hcrf_explore schedule --kernel daxpy --config 8C16S16 --dump
     hcrf_explore suite --config 4C32 -n 200 --memory real
     hcrf_explore hw --config 4C32S16
     hcrf_explore hw --all
     hcrf_explore duel --config 1C32S64 -n 100
     hcrf_explore suite -n 50 --trace run.jsonl
     hcrf_explore trace run.jsonl
     hcrf_explore incr --kernels 120 --edits 3 --verify

   Every scheduling subcommand takes the same evaluation knobs:
   --jobs/-j, --cache DIR / --no-cache, --trace FILE / --no-trace,
   --memory SCENARIO.  One shared Cmdliner term assembles them into the
   single [Runner.Ctx] every driver consumes — a new subcommand cannot
   drift from the others — and the environment (HCRF_JOBS, HCRF_CACHE,
   HCRF_TRACE) supplies defaults exactly as in bench/main.exe.  Only
   [incr] adds a stage memo, in-process; --cache DIR is the one place
   any evaluation state persists. *)

open Cmdliner
open Hcrf_sched

(* A register-file notation, parsed when Cmdliner reads it: a malformed
   one is a usage error that names the notation and the parser's
   message.  Every notation a command sees has parsed once already. *)
let notation =
  let parse s =
    match Hcrf_model.Presets.of_notation s with
    | (_ : Hcrf_machine.Config.t) -> Ok s
    | exception (Failure msg | Invalid_argument msg) ->
      Error (`Msg (Fmt.str "invalid notation %S: %s" s msg))
  in
  Arg.conv (parse, Fmt.string)

let config_of_string s = Hcrf_model.Presets.of_notation s

let config_arg =
  let doc =
    "Register-file organization, in the paper's notation extended with \
     the generalized axes: S128, 4C32, 2C32S64, 4C16S16@r2w1, ...  \
     Published Table-5 points use the published hardware; anything else \
     is priced with the CACTI/FO4 model.  Defaults to HCRF_CONFIG, or \
     8C16S16."
  in
  let arg =
    Arg.(value & opt (some notation) None & info [ "c"; "config" ] ~doc)
  in
  let resolve = function
    | Some s -> s
    | None -> (
      match Hcrf_eval.Env.config () with
      | Some c -> c.Hcrf_machine.Config.name
      | None -> "8C16S16")
  in
  Term.(const resolve $ arg)

let n_arg =
  let doc = "Number of synthetic workbench loops." in
  Arg.(value & opt int 200 & info [ "n"; "loops" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for suite evaluation (1 = serial; results are \
     identical for any value).  Defaults to HCRF_JOBS or this machine's \
     recommended domain count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)

(* Schedule cache: --cache DIR forces an on-disk cache, --no-cache
   disables caching entirely; otherwise HCRF_CACHE is honoured the same
   way as in bench/main.exe ("" = in-memory only). *)
let cache_term =
  let cache_dir =
    let doc =
      "Back the content-addressed schedule cache with $(docv) \
       (overrides the HCRF_CACHE environment variable)."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~doc ~docv:"DIR")
  in
  let no_cache =
    let doc = "Disable the schedule cache even if HCRF_CACHE is set." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let make dir no =
    if no then None
    else
      match dir with
      | Some d -> Some (Hcrf_cache.Cache.create ~dir:d ())
      | None -> Hcrf_eval.Env.cache ()
  in
  Term.(const make $ cache_dir $ no_cache)

(* Event tracing: --trace FILE records a JSONL trace (plus in-process
   counters), --no-trace forces the null tracer; otherwise HCRF_TRACE
   is honoured ("" = counters only). *)
let tracer_term =
  let trace_file =
    let doc =
      "Record a JSONL event trace to $(docv) (overrides the HCRF_TRACE \
       environment variable).  A final \"trace:\" line reports the \
       sorted event totals."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let no_trace =
    let doc = "Disable event tracing even if HCRF_TRACE is set." in
    Arg.(value & flag & info [ "no-trace" ] ~doc)
  in
  let make file no =
    let open Hcrf_eval.Env in
    if no then tracer_of_spec Off
    else
      match file with
      | Some f -> tracer_of_spec (File f)
      | None -> tracer ()
  in
  Term.(const make $ trace_file $ no_trace)

let memory_conv =
  Arg.enum
    [
      ("ideal", Hcrf_eval.Runner.Ideal);
      ("real", Hcrf_eval.Runner.Real { prefetch = false });
      ("prefetch", Hcrf_eval.Runner.Real { prefetch = true });
    ]

let memory_arg =
  let doc =
    Fmt.str "Memory scenario, $(docv) is %s."
      (Arg.doc_alts_enum [ ("ideal", ()); ("real", ()); ("prefetch", ()) ])
  in
  Arg.(
    value
    & opt memory_conv Hcrf_eval.Runner.Ideal
    & info [ "m"; "memory" ] ~doc ~docv:"SCENARIO")

(* The one evaluation context shared by every scheduling subcommand:
   [Runner.Ctx.make] is the single construction path, so adding a knob
   here adds it to every subcommand at once. *)
let ctx_term =
  let make scenario jobs cache tracer =
    let jobs =
      match jobs with Some j -> max 1 j | None -> Hcrf_eval.Env.jobs ()
    in
    Hcrf_eval.Runner.Ctx.make ~scenario ?cache ~jobs ~tracer ()
  in
  Term.(const make $ memory_arg $ jobs_arg $ cache_term $ tracer_term)

(* Sorted event totals at the end of a traced run, then flush/close any
   JSONL sink.  Prints nothing under the null tracer. *)
let finish_trace tracer =
  (match Hcrf_obs.Tracer.counters tracer with
  | None -> ()
  | Some c -> Fmt.pr "trace: %a@." Hcrf_obs.Counters.pp c);
  Hcrf_obs.Tracer.close tracer

(* Proper enum converters so a typo reports the valid values instead of
   dying with an uncaught Failure backtrace. *)
let kernel_conv =
  Arg.enum (List.map (fun (name, _) -> (name, name)) Hcrf_workload.Kernels.all)

(* ------------------------------------------------------------------ *)

let schedule_cmd =
  let kernel_arg =
    let doc = "Kernel to schedule, $(docv) one of the built-in kernels." in
    Arg.(
      value & opt kernel_conv "daxpy"
      & info [ "k"; "kernel" ] ~doc ~docv:"KERNEL")
  in
  let dump_arg =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print the full schedule.")
  in
  (* the same answer path as every other subcommand, so --memory,
     --cache and --trace all take effect *)
  let run kernel config_name dump (ctx : Hcrf_eval.Runner.Ctx.t) =
    let config = config_of_string config_name in
    let loop = Hcrf_workload.Kernels.find kernel in
    let tracer = ctx.Hcrf_eval.Runner.Ctx.tracer in
    match Hcrf_eval.Runner.run_loop ~ctx config loop with
    | None ->
      (* the runner has logged the failing II *)
      finish_trace tracer;
      exit 1
    | Some { Hcrf_eval.Runner.outcome = o; _ } ->
      Fmt.pr "%s on %s: II=%d (MII=%d) SC=%d, %d ops (%d inserted)@." kernel
        config.Hcrf_machine.Config.name o.Engine.ii o.Engine.mii o.Engine.sc
        (Hcrf_ir.Ddg.num_nodes o.Engine.graph)
        (Hcrf_ir.Ddg.num_nodes o.Engine.graph
        - Hcrf_ir.Ddg.num_nodes loop.Hcrf_ir.Loop.ddg);
      let issues = Hcrf_core.Mirs_hc.validate o in
      if issues = [] then Fmt.pr "validation: ok@."
      else
        Fmt.pr "validation: %a@."
          Fmt.(list ~sep:comma Validate.pp_issue)
          issues;
      if dump then Fmt.pr "%a@." Schedule.pp o.Engine.schedule;
      finish_trace tracer
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule one kernel on one configuration")
    Term.(const run $ kernel_arg $ config_arg $ dump_arg $ ctx_term)

let suite_cmd =
  let run config_name n (ctx : Hcrf_eval.Runner.Ctx.t) =
    let config = config_of_string config_name in
    let loops = Hcrf_workload.Suite.generate ~n () in
    let a = Hcrf_eval.Runner.run_suite ~ctx config loops in
    let cache_stats =
      Option.map Hcrf_cache.Cache.stats ctx.Hcrf_eval.Runner.Ctx.cache
    in
    Fmt.pr "%a@."
      (Hcrf_eval.Metrics.pp_aggregate ?cache:cache_stats ?trace:None)
      a;
    List.iter
      (fun (b, count, cycles) ->
        Fmt.pr "  %-8s %4d loops  %.3e cycles@." (Hcrf_eval.Classify.name b)
          count cycles)
      a.Hcrf_eval.Metrics.bound_share;
    finish_trace ctx.Hcrf_eval.Runner.Ctx.tracer
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Schedule the synthetic workbench on one configuration")
    Term.(const run $ config_arg $ n_arg $ ctx_term)

let hw_cmd =
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Print every Table-5 row.")
  in
  (* hw prices hardware only — it never runs the scheduler, so it takes
     none of the shared evaluation knobs *)
  let run config_name all =
    if all then
      Fmt.pr "%a@."
        (Hcrf_eval.Experiments.pp_hw_rows ~title:"Hardware evaluation")
        (Hcrf_eval.Experiments.table5 ())
    else begin
      let config = config_of_string config_name in
      let est = Hcrf_model.Cacti.estimate config in
      Fmt.pr "%a@." Hcrf_machine.Config.pp config;
      Fmt.pr
        "model: local access %.3f ns, shared %a ns, total area %.2f Ml2@."
        est.Hcrf_model.Cacti.local_access_ns
        Fmt.(option ~none:(any "-") (fmt "%.3f"))
        est.Hcrf_model.Cacti.shared_access_ns
        est.Hcrf_model.Cacti.total_area_mlambda2
    end
  in
  Cmd.v
    (Cmd.info "hw" ~doc:"Price a configuration with the technology model")
    Term.(const run $ config_arg $ all_arg)

let ports_cmd =
  (* sweep the communication resources of an organization and report
     the ΣII impact: the inter-level lp/sp ports (the §4 design
     decision) and, on the generalized axis, the per-bank access-port
     counts of the first-level banks — where does the hierarchical
     organization stop paying once ports are scarce? *)
  let access_arg =
    let doc =
      "Sweep the per-bank access ports of the first-level banks \
       (uniform, then r6w4 down to r2w1) instead of the inter-level \
       lp/sp ports.  Works for any organization."
    in
    Arg.(value & flag & info [ "access" ] ~doc)
  in
  let run config_name n access (ctx : Hcrf_eval.Runner.Ctx.t) =
    let open Hcrf_machine in
    let base = Rf.of_notation config_name in
    let loops = Hcrf_workload.Suite.generate ~n () in
    let point rf =
      let config = Hcrf_model.Presets.of_model rf in
      Hcrf_eval.Runner.run_suite ~ctx config loops
    in
    if access then begin
      Fmt.pr "Access-port sweep for %s (%d loops):@." config_name n;
      Fmt.pr "   pr  pw | sumII | %%MII@.";
      List.iter
        (fun acc ->
          let a = point (Hcrf_eval.Experiments.rf_with_access base acc) in
          let pr, pw =
            match acc with
            | None -> ("inf", "inf")
            | Some (pr, pw) -> (string_of_int pr, string_of_int pw)
          in
          Fmt.pr "  %3s %3s | %5d | %4.1f@." pr pw
            a.Hcrf_eval.Metrics.sum_ii a.Hcrf_eval.Metrics.pct_at_mii)
        Hcrf_eval.Experiments.scarcity_ladder
    end
    else begin
      match base with
      | Rf.Hierarchical h ->
        Fmt.pr "Port sweep for %s (%d loops):@." config_name n;
        Fmt.pr "  lp sp | sumII | %%MII@.";
        List.iter
          (fun (lp, sp) ->
            let rf =
              Rf.Hierarchical
                { h with lp = Cap.Finite lp; sp = Cap.Finite sp }
            in
            let a = point rf in
            Fmt.pr "  %2d %2d | %5d | %4.1f@." lp sp
              a.Hcrf_eval.Metrics.sum_ii a.Hcrf_eval.Metrics.pct_at_mii)
          [ (1, 1); (2, 1); (2, 2); (3, 2); (4, 2) ]
      | Rf.Monolithic _ | Rf.Clustered _ ->
        Fmt.epr
          "ports: the lp/sp sweep needs a hierarchical configuration \
           (xCySz); use --access for the access-port sweep@.";
        exit 1
    end;
    Option.iter
      (fun c ->
        Fmt.pr "cache: %a@." Hcrf_cache.Cache.pp_stats
          (Hcrf_cache.Cache.stats c))
      ctx.Hcrf_eval.Runner.Ctx.cache;
    finish_trace ctx.Hcrf_eval.Runner.Ctx.tracer
  in
  Cmd.v
    (Cmd.info "ports"
       ~doc:
         "Sweep the LoadR/StoreR or per-bank access-port counts of an \
          organization")
    Term.(const run $ config_arg $ n_arg $ access_arg $ ctx_term)

let scarcity_cmd =
  let flat_arg =
    let doc = "Flat clustered organization (the rival)." in
    Arg.(value & opt notation "4C32" & info [ "flat" ] ~doc)
  in
  let hier_arg =
    let doc = "Hierarchical organization under test." in
    Arg.(value & opt notation "4C16S16" & info [ "hier" ] ~doc)
  in
  let run flat hier n (ctx : Hcrf_eval.Runner.Ctx.t) =
    let loops = Hcrf_workload.Suite.generate ~n () in
    let rows = Hcrf_eval.Experiments.port_scarcity ~flat ~hier ~ctx ~loops () in
    Fmt.pr "%a@." Hcrf_eval.Experiments.pp_port_scarcity rows;
    finish_trace ctx.Hcrf_eval.Runner.Ctx.tracer
  in
  Cmd.v
    (Cmd.info "scarcity"
       ~doc:
         "Access-port scarcity sweep: execution time of a hierarchical \
          organization against its flat rival as per-bank ports shrink")
    Term.(const run $ flat_arg $ hier_arg $ n_arg $ ctx_term)

let duel_cmd =
  let run config_name n (ctx : Hcrf_eval.Runner.Ctx.t) =
    let config = config_of_string config_name in
    let loops = Hcrf_workload.Suite.generate ~n () in
    let t = Hcrf_eval.Experiments.table4 ~config ~ctx ~loops () in
    Fmt.pr "%a@." Hcrf_eval.Experiments.pp_table4 t;
    finish_trace ctx.Hcrf_eval.Runner.Ctx.tracer
  in
  Cmd.v
    (Cmd.info "duel"
       ~doc:"Compare MIRS_HC against the non-iterative scheduler of [36]")
    Term.(const run $ config_arg $ n_arg $ ctx_term)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let cases_arg =
    Arg.(value & opt int 500 & info [ "cases" ] ~doc:"Number of fuzz cases.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let corpus_arg =
    let doc = "Write one reproducer file per failure into $(docv)." in
    Arg.(value & opt string "corpus" & info [ "corpus" ] ~doc ~docv:"DIR")
  in
  let no_corpus_arg =
    Arg.(value & flag & info [ "no-corpus" ] ~doc:"Do not write reproducers.")
  in
  let inject_arg =
    let doc =
      "Oracle self-test: disable the engine's resource-conflict check, so \
       every scheduled case must be caught by independent validation and \
       shrunk to a small reproducer."
    in
    Arg.(value & flag & info [ "inject-fault" ] ~doc)
  in
  let exact_arg =
    let doc =
      "Arm the Optimality oracle: generate exact-tractable loops (the \
       small_exact preset) and certify every scheduled case with the \
       exact branch-and-bound; the heuristic undercutting a certified \
       bound is an oracle failure."
    in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run seed cases no_shrink corpus no_corpus inject exact
      (ctx : Hcrf_eval.Runner.Ctx.t) =
    let corpus = if no_corpus then None else Some corpus in
    if inject then Schedule.fault := Some Schedule.Lax_resources;
    Fun.protect
      ~finally:(fun () -> Schedule.fault := None)
      (fun () ->
        let param_presets =
          if exact then Some Hcrf_check.Check.small_exact_presets else None
        in
        let report =
          Hcrf_check.Check.campaign ~ctx ~shrink:(not no_shrink) ?corpus
            ?param_presets ~exact ~seed ~cases ()
        in
        Fmt.pr "%a@." Hcrf_check.Check.pp_report report;
        finish_trace ctx.Hcrf_eval.Runner.Ctx.tracer;
        if report.Hcrf_check.Check.r_failures <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: cross-validate the scheduler against \
          independent oracles on randomized loops")
    Term.(
      const run $ seed_arg $ cases_arg $ no_shrink_arg $ corpus_arg
      $ no_corpus_arg $ inject_arg $ exact_arg $ ctx_term)

let exact_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Seed for the --genloop corpus.")
  in
  let genloop_arg =
    let doc =
      "Certify a seeded Genloop corpus (the small_exact preset) instead \
       of the synthetic workbench."
    in
    Arg.(value & flag & info [ "genloop" ] ~doc)
  in
  let max_nodes_arg =
    let doc = "Skip loops with more than $(docv) operations." in
    Arg.(value & opt int 12 & info [ "max-nodes" ] ~doc ~docv:"N")
  in
  let budget_arg =
    let doc = "Branch-and-bound step budget per loop." in
    Arg.(
      value
      & opt int Hcrf_exact.Exact.default_budget
      & info [ "budget" ] ~doc ~docv:"STEPS")
  in
  let gap_corpus_arg =
    let doc =
      "Hunt optimality gaps instead: sweep small_exact cases across the \
       published configurations, shrink every case the heuristic \
       provably misses, and write one reproducer per gap into $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "gap-corpus" ] ~doc ~docv:"DIR")
  in
  let run config_name n seed genloop max_nodes budget gap_corpus
      (ctx : Hcrf_eval.Runner.Ctx.t) =
    match gap_corpus with
    | Some dir ->
      let repros = Hcrf_check.Check.hunt_gaps ~seed ~cases:n () in
      List.iter
        (fun (r : Hcrf_check.Repro.t) ->
          let path = Hcrf_check.Repro.write ~dir r in
          Fmt.pr "%s: %s@." path r.Hcrf_check.Repro.detail)
        repros;
      Fmt.pr "gap hunt: seed=%d cases=%d gaps=%d@." seed n
        (List.length repros)
    | None ->
      let config = config_of_string config_name in
      let loops =
        if genloop then
          let params = List.assoc "small_exact"
              Hcrf_check.Check.small_exact_presets in
          List.init n (fun index ->
              let rng = Hcrf_workload.Rng.create ~seed:(seed + index) in
              Hcrf_workload.Genloop.generate ~params ~rng ~index ())
        else Hcrf_workload.Suite.generate ~n ()
      in
      let loops =
        List.filter
          (fun (l : Hcrf_ir.Loop.t) ->
            Hcrf_ir.Ddg.num_nodes l.Hcrf_ir.Loop.ddg <= max_nodes)
          loops
      in
      let tracer = ctx.Hcrf_eval.Runner.Ctx.tracer in
      let certified = ref 0 and budget_hit = ref 0 and violations = ref 0 in
      let gaps = Hashtbl.create 7 in
      List.iter
        (fun (loop : Hcrf_ir.Loop.t) ->
          let name = Hcrf_ir.Loop.name loop in
          let trace = Hcrf_obs.Tracer.start tracer ~label:name in
          let r =
            Hcrf_exact.Exact.solve ~budget ~trace config
              loop.Hcrf_ir.Loop.ddg
          in
          Hcrf_obs.Tracer.commit tracer trace;
          let heur =
            match Engine.schedule config loop.Hcrf_ir.Loop.ddg with
            | Error _ -> None
            | Ok o -> Some o.Engine.ii
          in
          if r.Hcrf_exact.Exact.x_optimal then begin
            incr certified;
            match heur with
            | Some h ->
              let g = h - r.Hcrf_exact.Exact.x_lb in
              Hashtbl.replace gaps g
                (1 + Option.value ~default:0 (Hashtbl.find_opt gaps g))
            | None -> ()
          end;
          if r.Hcrf_exact.Exact.x_budget_hit then incr budget_hit;
          (match heur with
          | Some h
            when r.Hcrf_exact.Exact.x_lb_exhausted
                 && h < r.Hcrf_exact.Exact.x_lb ->
            incr violations;
            Fmt.pr "VIOLATION %s: heuristic II=%d beats certified lb=%d@."
              name h r.Hcrf_exact.Exact.x_lb
          | _ -> ());
          Fmt.pr "%-10s nodes=%-3d %a heur_ii=%a@." name
            (Hcrf_ir.Ddg.num_nodes loop.Hcrf_ir.Loop.ddg)
            Hcrf_exact.Exact.pp r
            Fmt.(option ~none:(any "-") int)
            heur)
        loops;
      let gaps =
        List.sort compare
          (Hashtbl.fold (fun g n acc -> (g, n) :: acc) gaps [])
      in
      Fmt.pr "exact: config=%s loops=%d certified=%d budget_hit=%d gaps:%a@."
        config.Hcrf_machine.Config.name (List.length loops) !certified
        !budget_hit
        Fmt.(list ~sep:nop (fun ppf (g, n) -> pf ppf " %d=%d" g n))
        gaps;
      finish_trace tracer;
      if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:
         "Certify minimal IIs of small loops with the exact \
          branch-and-bound and measure the heuristic's optimality gap")
    Term.(
      const run $ config_arg $ n_arg $ seed_arg $ genloop_arg $ max_nodes_arg
      $ budget_arg $ gap_corpus_arg $ ctx_term)

let trace_cmd =
  (* validate a recorded trace against the versioned schema and replay
     it into counters — `diff` of two "trace:" lines is the merge
     check used by the determinism tests *)
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file to validate.")
  in
  let run file =
    match Hcrf_obs.Jsonl.read_file file with
    | Error msg ->
      Fmt.epr "invalid trace: %s@." msg;
      exit 1
    | Ok events ->
      Fmt.pr "valid: %d events (schema %s v%d)@." (List.length events)
        Hcrf_obs.Jsonl.schema_name Hcrf_obs.Jsonl.version;
      let c = Hcrf_obs.Counters.create () in
      List.iter (fun (_label, ev) -> Hcrf_obs.Counters.add c ev) events;
      Fmt.pr "trace: %a@." Hcrf_obs.Counters.pp c
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Validate a JSONL event trace and print its counter totals")
    Term.(const run $ file_arg)

let serve_bench_cmd =
  (* fire a request storm at a running hcrf_serve daemon and print the
     tier counters each phase moved: one cold pass (every distinct loop
     once), then a concurrent warm storm.  Every response is checked
     byte-identical to the first response for its loop; --verify
     additionally byte-compares each entry against a local
     Runner.compute_entry (wall-clock seconds scrubbed: independent
     computations).
     --malformed sends a garbage frame first and proves the daemon
     survives it.  Timing the daemon is perfbench's job (serve_mixed). *)
  let open Hcrf_server in
  let addr_arg =
    let doc =
      "Daemon address (unix socket path or host:port).  Defaults to \
       HCRF_SERVE_ADDR."
    in
    Arg.(
      value & opt (some string) None & info [ "a"; "addr" ] ~doc ~docv:"ADDR")
  in
  let requests_arg =
    let doc = "Total schedule requests in the warm storm." in
    Arg.(value & opt int 1000 & info [ "r"; "requests" ] ~doc ~docv:"N")
  in
  let clients_arg =
    let doc = "Concurrent client connections for the storm." in
    Arg.(value & opt int 4 & info [ "clients" ] ~doc ~docv:"N")
  in
  let timeout_arg =
    let doc = "Per-request deadline in milliseconds (0: none)." in
    Arg.(value & opt int 0 & info [ "timeout-ms" ] ~doc ~docv:"MS")
  in
  let verify_arg =
    let doc =
      "Recompute every loop locally and byte-compare against the \
       daemon's responses."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let malformed_arg =
    let doc =
      "Send a deliberately broken frame before benchmarking and check \
       the daemon survives it."
    in
    Arg.(value & flag & info [ "malformed" ] ~doc)
  in
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "serve-bench: %s@." m; exit 1) fmt in
  let connect addr =
    match Client.connect addr with
    | Ok c -> c
    | Error msg -> fail "%s" msg
  in
  let get_stats c =
    match Client.stats c with
    | Ok s -> s
    | Error msg -> fail "stats: %s" msg
  in
  let run addr_opt config_name n requests clients timeout_ms verify
      malformed (ctx : Hcrf_eval.Runner.Ctx.t) =
    (* each storm thread steps by [clients] and wraps modulo [n] *)
    if clients < 1 then fail "--clients must be at least 1 (got %d)" clients;
    if n < 1 then fail "--loops must be at least 1 (got %d)" n;
    let scenario = ctx.Hcrf_eval.Runner.Ctx.scenario in
    let addr_s =
      match
        match addr_opt with
        | Some a -> Some a
        | None -> Hcrf_eval.Env.serve_addr ()
      with
      | Some a -> a
      | None -> fail "no address (pass --addr or set HCRF_SERVE_ADDR)"
    in
    let addr = Wire.addr_of_string addr_s in
    let config = config_of_string config_name in
    let opts = ctx.Hcrf_eval.Runner.Ctx.opts in
    let loops = Array.of_list (Hcrf_workload.Suite.generate ~n ()) in
    let n = Array.length loops in
    if malformed then begin
      (* a garbage frame must get this connection refused or closed —
         and must not take the daemon down *)
      let bad = connect addr in
      (match Client.send_raw bad "this is not a frame at all........" with
      | Ok (Wire.Refused _) | Error _ -> ()
      | Ok _ -> fail "daemon accepted a garbage frame");
      Client.close bad;
      let again = connect addr in
      (match Client.ping again with
      | Ok () -> Fmt.pr "malformed: daemon survived a garbage frame@."
      | Error msg -> fail "daemon did not survive a garbage frame: %s" msg);
      Client.close again
    end;
    let c0 = connect addr in
    (match Client.ping c0 with
    | Ok () -> ()
    | Error msg -> fail "ping: %s" msg);
    let before = get_stats c0 in
    let timeout_ms = if timeout_ms > 0 then Some timeout_ms else None in
    let schedule_on client i =
      match
        Client.schedule client ?timeout_ms ~config ~opts ~scenario loops.(i)
      with
      | Ok (Wire.Scheduled entry) -> entry
      | Ok (Wire.Refused (k, msg)) ->
        fail "loop %d refused (%s): %s" i (Wire.error_kind_name k) msg
      | Ok _ -> fail "loop %d: unexpected reply" i
      | Error msg -> fail "loop %d: %s" i msg
    in
    (* No_sharing: the bytes depend on the entry's values only, not on
       how the daemon's copy of it happens to share them *)
    let bytes_of_entry (e : Hcrf_cache.Entry.t) =
      Marshal.to_string e [ Marshal.No_sharing ]
    in
    (* first responses per loop: the identity baseline for the storm *)
    let baseline = Array.init n (schedule_on c0) in
    let baseline_bytes = Array.map bytes_of_entry baseline in
    let mid = get_stats c0 in
    (* the storm: [clients] connections, [requests] total, round-robin
       over the loops — every response must byte-match the baseline *)
    let errors = Mutex.create () in
    let first_error = ref None in
    let storm_client k () =
      let client = connect addr in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let r = ref k in
      while !r < requests do
        let i = !r mod n in
        (try
           let bytes = bytes_of_entry (schedule_on client i) in
           if not (String.equal bytes baseline_bytes.(i)) then begin
             Mutex.lock errors;
             if !first_error = None then
               first_error :=
                 Some (Fmt.str "loop %d: storm response differs from cold" i);
             Mutex.unlock errors
           end
         with e ->
           Mutex.lock errors;
           if !first_error = None then
             first_error := Some (Printexc.to_string e);
           Mutex.unlock errors);
        r := !r + clients
      done
    in
    List.iter Thread.join
      (List.init clients (fun k -> Thread.create (storm_client k) ()));
    (match !first_error with
    | Some msg -> fail "%s" msg
    | None -> ());
    let after = get_stats c0 in
    Client.close c0;
    let d get = get after - get mid in
    Fmt.pr "serve-bench: %d loops, %d requests, %d clients on %a@." n
      requests clients Wire.pp_addr addr;
    Fmt.pr "cold: computed=%d@." (mid.Wire.computed - before.Wire.computed);
    Fmt.pr
      "storm: computed=%d lru_hits=%d tier2_hits=%d coalesced=%d \
       rejected=%d timeouts=%d@."
      (d (fun s -> s.Wire.computed))
      (d (fun s -> s.Wire.lru_hits))
      (d (fun s -> s.Wire.tier2_hits))
      (d (fun s -> s.Wire.coalesced))
      (d (fun s -> s.Wire.rejected))
      (d (fun s -> s.Wire.timeouts));
    Fmt.pr "stats: %a@." Wire.pp_serve_stats after;
    if verify then begin
      (* the daemon's entries against this process's own compute path:
         independent runs, identical up to the wall-clock seconds *)
      let scrubbed = function
        | Hcrf_cache.Entry.Scheduled s ->
          Hcrf_cache.Entry.Scheduled
            { s with outcome = { s.outcome with s_seconds = 0. } }
        | Hcrf_cache.Entry.Failed _ as e -> e
      in
      Array.iteri
        (fun i l ->
          let local = Hcrf_eval.Runner.compute_entry ~scenario ~opts config l in
          if
            not
              (String.equal
                 (bytes_of_entry (scrubbed baseline.(i)))
                 (bytes_of_entry (scrubbed local)))
          then fail "loop %d: daemon entry differs from the local runner" i)
        loops;
      Fmt.pr "verify: ok (%d loops identical to the local runner)@." n
    end
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:"Fire a request storm at a running hcrf_serve daemon")
    Term.(
      const run $ addr_arg $ config_arg $ n_arg $ requests_arg
      $ clients_arg $ timeout_arg $ verify_arg $ malformed_arg $ ctx_term)

let incr_cmd =
  (* a scripted edit session against the memoized pipeline: evaluate a
     generated frontend program cold, then apply [--edits] single-kernel
     perturbations and report, per edit, exactly what recomputed.  Every
     line but the banner's jobs= field is deterministic (counts and
     names only), so the smoke script can compare jobs=1 against jobs=4
     byte-for-byte;
     --verify re-evaluates the final program with a fresh cold context
     and byte-compares the per-kernel metrics (sched_seconds scrubbed:
     independently measured wall-clock). *)
  let kernels_arg =
    let doc = "Number of generated frontend kernels in the program." in
    Arg.(value & opt int 24 & info [ "kernels" ] ~doc ~docv:"N")
  in
  let edits_arg =
    let doc = "Number of scripted single-kernel edits to apply." in
    Arg.(value & opt int 3 & info [ "edits" ] ~doc ~docv:"N")
  in
  let verify_arg =
    let doc =
      "Byte-compare the final incremental metrics against a cold \
       evaluation of the same program."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "incr: %s@." m; exit 1) fmt in
  (* No_sharing: entries replayed from disk box their floats apart
     where a cold run shares one box, and the bytes must not care *)
  let bytes_of perfs =
    Marshal.to_string
      (List.map
         (Option.map (fun (p : Hcrf_eval.Metrics.loop_perf) ->
              { p with Hcrf_eval.Metrics.sched_seconds = 0. }))
         perfs)
      [ Marshal.No_sharing ]
  in
  let run config_name kernels edits verify (ctx : Hcrf_eval.Runner.Ctx.t) =
    let config = config_of_string config_name in
    let kernels = max 1 kernels in
    (* the stage memo is the whole point here; it lives in this
       process, and schedules persist through --cache DIR *)
    let memo = Hcrf_eval.Memo.create () in
    let ctx = { ctx with Hcrf_eval.Runner.Ctx.memo = Some memo } in
    let pipe = Hcrf_incr.Pipeline.create ~ctx config in
    let report tag (stats : Hcrf_incr.Pipeline.eval_stats)
        (a : Hcrf_eval.Metrics.aggregate) =
      Fmt.pr "%s: %a@." tag Hcrf_incr.Pipeline.pp_eval_stats stats;
      (match stats.Hcrf_incr.Pipeline.sched.Hcrf_eval.Runner.dirty with
      | [] -> ()
      | d -> Fmt.pr "  dirty:%a@." Fmt.(list ~sep:nop (fmt " %s")) d);
      Fmt.pr "result: scheduled=%d sum_ii=%d pct_at_mii=%.1f@."
        a.Hcrf_eval.Metrics.loops a.Hcrf_eval.Metrics.sum_ii
        a.Hcrf_eval.Metrics.pct_at_mii
    in
    Fmt.pr "incr: config=%s kernels=%d edits=%d jobs=%d@."
      config.Hcrf_machine.Config.name kernels edits
      ctx.Hcrf_eval.Runner.Ctx.jobs;
    let prog = ref (Hcrf_incr.Progs.program ~n:kernels) in
    let perfs0, agg0, cold_stats = Hcrf_incr.Pipeline.eval pipe !prog in
    report "cold" cold_stats agg0;
    let last_perfs = ref perfs0 in
    for round = 1 to edits do
      (* deterministic spread over the kernels; distinct per round for
         any program of a few kernels or more *)
      let kernel = round * 7 mod kernels in
      prog := Hcrf_incr.Progs.edit ~round ~kernel !prog;
      let perfs, agg, stats = Hcrf_incr.Pipeline.eval pipe !prog in
      report (Fmt.str "edit %d" round) stats agg;
      last_perfs := perfs
    done;
    Fmt.pr "memo: entries=%d%a@." (Hcrf_eval.Memo.length memo)
      Fmt.(list ~sep:nop (fun ppf (k, v) -> pf ppf " %s=%d" k v))
      (Hcrf_eval.Memo.stage_stats memo);
    if verify then begin
      (* same program, fresh context: no memo, no cache, nothing warm *)
      let cold_ctx =
        Hcrf_eval.Runner.Ctx.make
          ~scenario:ctx.Hcrf_eval.Runner.Ctx.scenario
          ~opts:ctx.Hcrf_eval.Runner.Ctx.opts
          ~jobs:ctx.Hcrf_eval.Runner.Ctx.jobs ()
      in
      let cold = Hcrf_incr.Pipeline.create ~ctx:cold_ctx config in
      let cold_perfs, _, _ = Hcrf_incr.Pipeline.eval cold !prog in
      if not (String.equal (bytes_of !last_perfs) (bytes_of cold_perfs))
      then fail "incremental metrics differ from a cold evaluation";
      Fmt.pr "verify: ok (%d kernels byte-identical to a cold evaluation)@."
        kernels
    end;
    finish_trace ctx.Hcrf_eval.Runner.Ctx.tracer
  in
  Cmd.v
    (Cmd.info "incr"
       ~doc:
         "Apply a scripted edit sequence to a frontend program and \
          report what the memoized pipeline recomputes")
    Term.(
      const run $ config_arg $ kernels_arg $ edits_arg $ verify_arg
      $ ctx_term)

let () =
  Hcrf_obs.Logging.setup ();
  Hcrf_eval.Env.warn_unknown ();
  let info =
    Cmd.info "hcrf_explore" ~version:"1.0"
      ~doc:
        "Hierarchical clustered register files for VLIW processors \
         (IPDPS'03 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ schedule_cmd; suite_cmd; hw_cmd; ports_cmd; scarcity_cmd;
            duel_cmd; fuzz_cmd; exact_cmd; trace_cmd; serve_bench_cmd;
            incr_cmd ]))
