(* The batch workloads: the Table-6 configurations over the seeded
   workbench with ideal memory, and the Figure-6 configurations with
   real memory and selective binding prefetch.  A round is one cold pass
   into a fresh in-memory schedule cache and one warm pass replaying
   from it, both at jobs=1. *)

open Common
module Runner = Hcrf_eval.Runner
module Cache = Hcrf_cache.Cache
module Config = Hcrf_machine.Config
module Counters = Hcrf_obs.Counters
module Tracer = Hcrf_obs.Tracer
module Trace = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event

(* Workbench prefix per run: the largest one whose cold pass over the
   15 Table-6 configurations fits about five times into a 10 s run on a
   2 GHz Xeon core. *)
let loops_per_run = 38

type kind = Ideal | Prefetch

let setup kind ~seed =
  let loops = workbench_loops ~seed ~n:loops_per_run in
  match kind with
  | Ideal -> (loops, Hcrf_model.Presets.table5_configs (), Runner.Ideal)
  | Prefetch ->
    ( loops,
      Hcrf_eval.Experiments.figure6_configs (),
      Runner.Real { prefetch = true } )

let items loops configs = List.length loops * List.length configs

(* One pass over every (config, loop) item through [Runner.run_loop]:
   per-item results and wall-clock seconds. *)
let pass ~ctx loops configs =
  List.map
    (fun config ->
      ( config,
        List.map
          (fun loop ->
            let r, s = time (fun () -> Runner.run_loop ~ctx config loop) in
            (loop, r, s))
          loops ))
    configs

let pass_seconds p =
  List.fold_left
    (fun acc (_, rs) -> List.fold_left (fun acc (_, _, s) -> acc +. s) acc rs)
    0. p

let samples p =
  Array.of_list (List.concat_map (fun (_, rs) -> List.map (fun (_, _, s) -> s) rs) p)

(* A result's outcome with its schedule under the latency table the
   engine scheduled it with.  [Runner.run_loop] returns outcomes
   replayed through [Entry.to_outcome], which rebuilds the schedule
   with the configuration's default table; under binding prefetch the
   engine used the plan's load latencies, and validating against hit
   latencies misreads every prefetched value's lifetime. *)
let as_scheduled scenario config (loop : Hcrf_ir.Loop.t)
    (o : Hcrf_sched.Engine.outcome) =
  match scenario with
  | Runner.Ideal | Runner.Real { prefetch = false } -> o
  | Runner.Real { prefetch = true } ->
    let module S = Hcrf_sched.Schedule in
    let lat =
      Hcrf_sched.Latency.make
        ~override:(Hcrf_memsim.Prefetch.plan config loop)
        config
    in
    let s = S.create ~lat config ~ii:o.Hcrf_sched.Engine.ii in
    let g = o.Hcrf_sched.Engine.graph in
    (* (cycle, node) order, as [Entry.to_outcome] replays it *)
    Hcrf_ir.Ddg.nodes g
    |> List.filter_map (fun v ->
           Option.map (fun (e : S.entry) -> (e.S.cycle, v, e.S.loc))
             (S.entry o.Hcrf_sched.Engine.schedule v))
    |> List.sort compare
    |> List.iter (fun (cycle, v, loc) -> S.place s g v ~cycle ~loc);
    { o with Hcrf_sched.Engine.schedule = s }

(* Checks of a cold pass: every loop scheduled and every schedule
   accepted by the independent validator.  Returns how many replayed
   outcomes the validator rejects only under the default latency table
   (the replay defect [as_scheduled] works around). *)
let check_cold r ~scenario p =
  let replay_only = ref 0 in
  List.iter
    (fun ((config : Config.t), rs) ->
      List.iter
        (fun ((loop : Hcrf_ir.Loop.t), res, _) ->
          r.attempted <- r.attempted + 1;
          match res with
          | None ->
            fail r "no_schedule" "%s on %s" (Hcrf_ir.Loop.name loop)
              config.Config.name
          | Some (lr : Runner.loop_result) -> (
            let o = lr.Runner.outcome in
            match Hcrf_core.Mirs_hc.validate (as_scheduled scenario config loop o) with
            | [] ->
              if not (Hcrf_core.Mirs_hc.is_valid o) then incr replay_only
            | issue :: _ ->
              fail r "invalid_schedule" "%s on %s: %a" (Hcrf_ir.Loop.name loop)
                config.Config.name
                (fun () i -> Fmt.str "%a" Hcrf_sched.Validate.pp_issue i)
                issue))
        rs)
    p;
  !replay_only

let perf_bytes = function
  | None -> ""
  | Some (lr : Runner.loop_result) -> bytes (scrub_perf lr.Runner.perf)

(* The warm pass must replay the cold pass byte for byte once the
   scheduler wall-clock is scrubbed. *)
let check_warm r ~cold ~warm =
  List.iter2
    (fun ((config : Config.t), crs) (_, wrs) ->
      List.iter2
        (fun ((loop : Hcrf_ir.Loop.t), c, _) (_, w, _) ->
          r.attempted <- r.attempted + 1;
          if not (String.equal (perf_bytes c) (perf_bytes w)) then
            fail r "warm_mismatch" "%s on %s: warm replay differs from cold"
              (Hcrf_ir.Loop.name loop) config.Config.name)
        crs wrs)
    cold warm

(* ΣII and execution Mcycles of a pass, summed over configurations. *)
let quality p =
  List.fold_left
    (fun (ii, cyc) (config, rs) ->
      let a = Runner.aggregate config (List.filter_map (fun (_, r, _) -> r) rs) in
      (ii + a.Hcrf_eval.Metrics.sum_ii, cyc +. (a.Hcrf_eval.Metrics.exec_cycles /. 1e6)))
    (0, 0.) p

(* Median of [k] timings of [f] (at least one call), in nominal
   seconds. *)
let median_setup ~k f =
  let last = ref None and sp = speed () in
  let ts =
    Array.init k (fun _ ->
        Gc.full_major ();
        probe sp;
        let v, s = time f in
        last := Some v;
        s)
  in
  (Option.get !last, median ts *. rescale sp)

(* One pass with host-speed probes before it and after every
   configuration's loops: per-item results, and the sample row in
   nominal seconds. *)
let probed_pass ~ctx loops configs =
  let sp = speed () in
  probe sp;
  let p =
    List.concat_map
      (fun config ->
        let p = pass ~ctx loops [ config ] in
        probe sp;
        p)
      configs
  in
  (p, Array.map (fun s -> s *. rescale sp) (samples p), probe_s sp)

let run_untraced kind ~seed ~seconds r =
  let (loops, configs, scenario), setup_s =
    median_setup ~k:31 (fun () -> setup kind ~seed)
  in
  put r "setup_s" "s" setup_s;
  let n = items loops configs in
  let deadline = now () +. seconds in
  let cold_rows = ref [] and warm_rows = ref [] and probes = ref [] in
  let first_quality = ref None and replay_only = ref 0 in
  let rec round k =
    (* each round starts from a collected heap, so the peak does not
       depend on how many rounds fit *)
    Gc.full_major ();
    let ctx = Runner.Ctx.make ~scenario ~cache:(Cache.create ()) ~jobs:1 () in
    let cold, cold_row, cold_probe = probed_pass ~ctx loops configs in
    let warm, warm_row, _ = probed_pass ~ctx loops configs in
    cold_rows := cold_row :: !cold_rows;
    warm_rows := warm_row :: !warm_rows;
    probes := (pass_seconds cold, cold_probe) :: !probes;
    replay_only := !replay_only + check_cold r ~scenario cold;
    check_warm r ~cold ~warm;
    (* every round does the same work; later rounds would only give the
       collector more chances to peak, and their number varies *)
    if k = 1 then put r "peak_rss_mb" "MB" (peak_rss_mb ());
    let q = quality cold in
    (match !first_quality with
    | None -> first_quality := Some q
    | Some q0 ->
      if q <> q0 then fail r "nondeterministic" "round %d: ΣII/cycles moved" k);
    if now () < deadline || k * n < min_samples then round (k + 1) else k
  in
  let rounds = round 1 in
  let sum_ii, mcycles = Option.get !first_quality in
  note "workbench: %d loops x %d configs, %d rounds" (List.length loops)
    (List.length configs) rounds;
  let probe_ms = median (Array.of_list (List.map (fun (_, p) -> p *. 1e3) !probes)) in
  note "workbench: host probe %.4fms, times x%.4f" probe_ms (nominal_probe_s *. 1e3 /. probe_ms);
  note "cold pass seconds per round (host probe ms): %s"
    (String.concat " "
       (List.rev_map
          (fun (s, p) -> Printf.sprintf "%.3f (%.4f)" s (p *. 1e3))
          !probes));
  if !replay_only > 0 then
    note "workbench: %d replayed outcomes validate only under the scheduled \
          latency table (Entry.to_outcome drops the prefetch override)"
      !replay_only;
  latencies ?p99:(grouped_p99 (List.rev !cold_rows)) r ~prefix:"op_"
    ~what:"cold schedule latency" (Array.concat !cold_rows);
  put r "ops_per_s" "1/s" (float_of_int n /. typical_total !cold_rows);
  put r "warm_loops_per_s" "1/s" (float_of_int n /. typical_total !warm_rows);
  put r "sum_ii" "count" (float_of_int sum_ii);
  put r "exec_mcycles" "Mcycles" mcycles

(* Ejections and placements of the attempt that produced the schedule:
   the events after the last [II_try] of a loop's buffer (the runner's
   escalation rungs only ever append attempts). *)
let final_attempt events =
  List.fold_left
    (fun (e, p) ev ->
      match ev with
      | Ev.II_try _ -> (0, 0)
      | Ev.Eject _ -> (e + 1, p)
      | Ev.Place _ -> (e, p + 1)
      | _ -> (e, p))
    (0, 0) events

let count counters key =
  Option.value ~default:0 (List.assoc_opt key (Counters.counts counters))

let timing counters key =
  float_of_int (Option.value ~default:0 (List.assoc_opt key (Counters.timings counters)))

(* The traced run: tracing overhead (a cold pass without and one with
   a Counters sink, alternating item by item so that drift of the
   machine's speed hits both alike), then a probe pass timing each
   public entry point from outside, one call at a time. *)
let run_traced kind ~seed ~seconds:_ r =
  let loops, configs, scenario = setup kind ~seed in
  let n = items loops configs in
  let opts = Hcrf_core.Mirs_hc.default_options in
  let ctx tracer =
    Runner.Ctx.make ~scenario ~cache:(Cache.create ()) ~jobs:1 ~tracer ()
  in
  let counted = Counters.create () in
  let plain_ctx = ctx Tracer.null in
  let traced_ctx = ctx (Tracer.make [ Tracer.Counters counted ]) in
  let pairs =
    List.map
      (fun config ->
        ( config,
          List.map
            (fun loop ->
              let item ctx =
                let r, s = time (fun () -> Runner.run_loop ~ctx config loop) in
                (loop, r, s)
              in
              let plain = item plain_ctx in
              (plain, item traced_ctx))
            loops ))
      configs
  in
  let side f = List.map (fun (c, l) -> (c, List.map f l)) pairs in
  let traced_pass = side snd in
  ignore (check_cold r ~scenario traced_pass);
  let plain = pass_seconds (side fst) and traced = pass_seconds traced_pass in
  note "trace overhead: cold pass %.3fs untraced, %.3fs traced" plain traced;
  put r "trace.overhead_pct" "%" (100. *. ((traced /. plain) -. 1.));
  (* probe pass *)
  let counters = Counters.create () in
  let tracer = Tracer.make [ Tracer.Counters counters ] in
  let cache = Cache.create () in
  let key_ns = ref [] and find_ns = ref [] and mii_ns = ref [] in
  let order_ns = ref [] and engine_ns = ref [] and compute_ns = ref [] in
  let replay_ns = ref [] in
  let useful_ej = ref 0 and useful_pl = ref 0 in
  let spills = ref 0 and comm = ref 0 and compute_total = ref 0. in
  let gc0 = gc_snap () in
  let probe config loop =
    let push l f =
      let v, s = time f in
      l := ns_of_s s :: !l;
      v
    in
    let key = push key_ns (fun () -> Runner.cache_key ~scenario ~opts config loop) in
    let validate = Runner.entry_compatible loop in
    ignore (Cache.find ~validate cache key);
    let ddg = loop.Hcrf_ir.Loop.ddg in
    ignore (push mii_ns (fun () -> Hcrf_sched.Mii.compute config ddg));
    ignore (push order_ns (fun () -> Hcrf_sched.Order.compute config ddg));
    let engine_opts =
      match scenario with
      | Runner.Real { prefetch = true } ->
        { opts with
          Hcrf_sched.Engine.load_override = Hcrf_memsim.Prefetch.plan config loop }
      | _ -> opts
    in
    ignore (push engine_ns (fun () -> Hcrf_core.Mirs_hc.schedule ~opts:engine_opts config ddg));
    let trace = Trace.create ~label:(Hcrf_ir.Loop.name loop) in
    let entry, s =
      time (fun () -> Runner.compute_entry ~trace ~scenario ~opts config loop)
    in
    compute_ns := ns_of_s s :: !compute_ns;
    compute_total := !compute_total +. ns_of_s s;
    let e, p = final_attempt (Trace.events trace) in
    useful_ej := !useful_ej + e;
    useful_pl := !useful_pl + p;
    Tracer.commit tracer trace;
    Cache.add cache key entry;
    (match push replay_ns (fun () -> Runner.result_of_entry config loop entry) with
    | Some lr ->
      let st = lr.Runner.outcome.Hcrf_sched.Engine.stats in
      spills := !spills + st.Hcrf_sched.Engine.value_spills + st.invariant_spills;
      comm := !comm + st.comm_inserted
    | None -> ());
    ignore (push find_ns (fun () -> Cache.find ~validate cache key))
  in
  List.iter (fun config -> List.iter (probe config) loops) configs;
  put_gc r ~ops:n gc0;
  let med l = median (Array.of_list !l) in
  put r "cache.key_ns" "ns" (med key_ns);
  put r "cache.find_ns" "ns" (med find_ns);
  let cs = Cache.stats cache in
  put r "cache.hit_ratio" "ratio" (ratio cs.Cache.hits (cs.hits + cs.misses));
  put r "runner.compute_ns" "ns" (med compute_ns);
  put r "runner.replay_ns" "ns" (med replay_ns);
  put r "sched.mii_ns" "ns" (med mii_ns);
  put r "sched.order_ns" "ns" (med order_ns);
  put r "sched.order_share" "ratio"
    (List.fold_left ( +. ) 0. !order_ns /. !compute_total);
  put r "sched.engine_ns" "ns" (med engine_ns);
  let per_item key = timing counters key /. float_of_int n in
  put r "sched.phase.schedule_ns" "ns" (per_item "phase.schedule");
  put r "sched.phase.regalloc_ns" "ns" (per_item "phase.regalloc");
  let ii_try = count counters "ii_try" and eject = count counters "eject" in
  let place = count counters "place" in
  put r "sched.ii_try_events" "count" (float_of_int ii_try);
  put r "sched.eject_events" "count" (float_of_int eject);
  put r "sched.place_events" "count" (float_of_int place);
  put r "sched.ii_tries_per_loop" "count" (ratio ii_try n);
  put r "sched.useful_eject_ratio" "ratio" (ratio !useful_ej eject);
  put r "sched.useful_place_ratio" "ratio" (ratio !useful_pl place);
  put r "sched.spills" "count" (float_of_int !spills);
  put r "sched.comm_inserted" "count" (float_of_int !comm);
  put r "memsim.ns" "ns" (per_item "phase.memsim");
  put r "memsim.share" "ratio" (timing counters "phase.memsim" /. !compute_total);
  if List.exists (fun k -> count counted k <> count counters k) [ "ii_try"; "eject"; "place" ]
  then fail r "nondeterministic" "engine event totals differ between two cold passes"

let run kind ~seed ~seconds ~traced r =
  if traced then run_traced kind ~seed ~seconds r
  else run_untraced kind ~seed ~seconds r

(* The correctness gate on a tiny workload, for the self-test: failed
   operations of one cold + warm round under ideal memory and one under
   binding prefetch (whose schedules are validated through
   [as_scheduled]). *)
let gate_failures ~seed =
  let r = fresh_result () in
  let loops = workbench_loops ~seed ~n:6 in
  let configs = List.map Hcrf_model.Presets.published [ "S64"; "4C32S16" ] in
  List.iter
    (fun scenario ->
      let ctx = Runner.Ctx.make ~scenario ~cache:(Cache.create ()) ~jobs:1 () in
      let cold = pass ~ctx loops configs in
      let warm = pass ~ctx loops configs in
      ignore (check_cold r ~scenario cold);
      check_warm r ~cold ~warm)
    [ Runner.Ideal; Runner.Real { prefetch = true } ];
  (r.failed, r.attempted)
