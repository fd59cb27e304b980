(* Tests for the evaluation layer: classification, metrics, the suite
   runner, and smoke coverage of every experiment driver. *)

open Hcrf_sched
open Hcrf_eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_suite = lazy (Hcrf_workload.Suite.generate ~n:24 ())

(* ------------------------------------------------------------------ *)
(* Classify *)

let test_classify_cases () =
  let b ~fu ~mem ~comm ~rec_ = { Mii.fu; mem; comm; rec_ } in
  Alcotest.(check string)
    "mem bound" "MemPort"
    (Classify.name (Classify.of_bounds (b ~fu:2 ~mem:5 ~comm:1 ~rec_:1)));
  Alcotest.(check string)
    "rec bound" "Rec."
    (Classify.name (Classify.of_bounds (b ~fu:2 ~mem:3 ~comm:1 ~rec_:8)));
  Alcotest.(check string)
    "comm bound" "Com."
    (Classify.name (Classify.of_bounds (b ~fu:2 ~mem:3 ~comm:4 ~rec_:2)));
  Alcotest.(check string)
    "fu bound" "F.U."
    (Classify.name (Classify.of_bounds (b ~fu:6 ~mem:3 ~comm:1 ~rec_:2)));
  (* trivial loops default by memory presence *)
  Alcotest.(check string)
    "trivial with memory" "MemPort"
    (Classify.name (Classify.of_bounds (b ~fu:1 ~mem:1 ~comm:1 ~rec_:1)));
  Alcotest.(check string)
    "trivial without memory" "F.U."
    (Classify.name
       (Classify.of_bounds ~has_memory:false (b ~fu:1 ~mem:1 ~comm:1 ~rec_:1)))

let test_classify_kernels () =
  let config = Hcrf_model.Presets.published "S128" in
  let classify name =
    let l = Hcrf_workload.Kernels.find name in
    match Hcrf_core.Mirs_hc.schedule config l.Hcrf_ir.Loop.ddg with
    | Ok o -> Classify.name (Metrics.of_outcome l o).Metrics.bound
    | Error _ -> "fail"
  in
  Alcotest.(check string) "dot is recurrence bound" "Rec." (classify "dot");
  Alcotest.(check string) "tridiag is recurrence bound" "Rec."
    (classify "tridiag");
  Alcotest.(check string) "vdiv is FU bound" "F.U." (classify "vdiv");
  Alcotest.(check string) "cmul is memory bound" "MemPort" (classify "cmul")

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_formula () =
  (* II * (N + (SC-1) * E) with N the total iteration count *)
  Alcotest.(check (float 0.001))
    "useful cycles" 1030.
    (Metrics.useful_cycles ~ii:10 ~sc:4 ~n:100 ~e:1);
  Alcotest.(check (float 0.001))
    "entries pay the fill" 1120.
    (Metrics.useful_cycles ~ii:10 ~sc:4 ~n:100 ~e:4)

let test_metrics_of_outcome () =
  let config = Hcrf_model.Presets.published "S128" in
  let l = Hcrf_workload.Kernels.find "daxpy" in
  match Hcrf_core.Mirs_hc.schedule config l.Hcrf_ir.Loop.ddg with
  | Error _ -> Alcotest.fail "schedule failed"
  | Ok o ->
    let p = Metrics.of_outcome l o in
    check_int "ii recorded" o.Engine.ii p.Metrics.ii;
    (* 3 memory refs, 1000 iterations, 50 entries *)
    Alcotest.(check (float 1.)) "traffic" 150000. p.Metrics.traffic;
    check "useful cycles positive" true (p.Metrics.useful_cycles > 0.)

let test_aggregate () =
  let config = Hcrf_model.Presets.published "S128" in
  let results =
    List.filter_map (Runner.run_loop config) (Lazy.force small_suite)
  in
  check_int "nothing dropped" 24 (List.length results);
  let a = Runner.aggregate config results in
  check_int "loops" 24 a.Metrics.loops;
  check "sum ii >= sum mii" true (a.Metrics.sum_ii >= a.Metrics.sum_mii);
  check "ipc in a sane range" true
    (Metrics.ipc a > 1. && Metrics.ipc a < 12.);
  let shares = List.map (fun (_, n, _) -> n) a.Metrics.bound_share in
  check_int "bound shares partition the loops" 24
    (List.fold_left ( + ) 0 shares)

let test_runner_real_memory () =
  let config = Hcrf_model.Presets.published "S64" in
  let loops = Lazy.force small_suite in
  let agg scenario =
    let ctx = Runner.Ctx.make ~scenario () in
    Runner.run_suite ~ctx config loops
  in
  let ideal = agg Runner.Ideal in
  let real = agg (Runner.Real { prefetch = false }) in
  let pf = agg (Runner.Real { prefetch = true }) in
  check "ideal has no stalls" true (ideal.Metrics.stall = 0.);
  check "real memory stalls" true (real.Metrics.stall > 0.);
  check "prefetch reduces stalls" true
    (pf.Metrics.stall < real.Metrics.stall)

(* ------------------------------------------------------------------ *)
(* Par: the domain pool itself *)

let test_par_map_ordered () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun x -> x * x) xs)
    (Par.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int))
    "jobs=1 is plain map"
    (List.map (fun x -> x + 1) xs)
    (Par.map ~jobs:1 (fun x -> x + 1) xs);
  Alcotest.(check (list int))
    "more jobs than items"
    [ 0; 2 ]
    (Par.map ~jobs:8 (fun x -> 2 * x) [ 0; 1 ])

let test_par_exception_propagates () =
  (* a worker exception must reach the caller, not hang the pool *)
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      ignore
        (Par.map ~jobs:4
           (fun x -> if x = 37 then failwith "boom" else x)
           (List.init 100 Fun.id)))

(* The determinism invariant of the tentpole: any job count yields the
   same aggregate, byte for byte, as the serial path. *)
let test_parallel_determinism () =
  let loops = Hcrf_workload.Suite.generate ~n:50 () in
  let config = Hcrf_model.Presets.published "2C32S32" in
  List.iter
    (fun scenario ->
      let agg jobs =
        let ctx = Runner.Ctx.make ~scenario ~jobs () in
        Runner.run_suite ~ctx config loops
      in
      let serial = agg 1 and par = agg 4 in
      Alcotest.(check string)
        "identical aggregate output"
        (Fmt.str "%a" (Metrics.pp_aggregate ?cache:None ?trace:None) serial)
        (Fmt.str "%a" (Metrics.pp_aggregate ?cache:None ?trace:None) par);
      check "identical cycles" true
        (serial.Metrics.exec_cycles = par.Metrics.exec_cycles);
      check "identical stall" true
        (serial.Metrics.stall = par.Metrics.stall);
      check "identical traffic" true
        (serial.Metrics.total_traffic = par.Metrics.total_traffic);
      check_int "identical sum ii" serial.Metrics.sum_ii par.Metrics.sum_ii;
      check "identical sched stats" true
        (serial.Metrics.sched = par.Metrics.sched))
    [ Runner.Ideal; Runner.Real { prefetch = true } ]

(* ------------------------------------------------------------------ *)
(* Experiment drivers (smoke on a small suite) *)

let test_figure1_shape () =
  let rows = Experiments.figure1 ~loops:(Lazy.force small_suite) () in
  check_int "five points" 5 (List.length rows);
  let ipcs = List.map snd rows in
  check "IPC grows with resources" true
    (List.nth ipcs 4 > List.nth ipcs 0);
  List.iter (fun i -> check "ipc positive" true (i > 0.)) ipcs

let test_table1_shape () =
  let rows = Experiments.table1 ~loops:(Lazy.force small_suite) () in
  check_int "three configs" 3 (List.length rows);
  List.iter
    (fun r ->
      let pct = List.fold_left (fun a (_, p, _) -> a +. p) 0. r.Experiments.t1_shares in
      check "shares sum to 100" true (abs_float (pct -. 100.) < 0.5))
    rows

let test_table4_consistent () =
  let t = Experiments.table4 ~loops:(Lazy.force small_suite) () in
  let n (a, _, _) = a in
  check_int "all loops accounted" 24
    (n t.Experiments.t4_better + n t.Experiments.t4_equal
   + n t.Experiments.t4_worse);
  let hc_of (_, _, hc) = hc and ni_of (_, ni, _) = ni in
  check "equal rows have equal sums" true
    (hc_of t.Experiments.t4_equal = ni_of t.Experiments.t4_equal);
  check "better rows favour mirs_hc" true
    (hc_of t.Experiments.t4_better <= ni_of t.Experiments.t4_better)

let test_figure4_monotone () =
  let rows = Experiments.figure4 ~loops:(Lazy.force small_suite) () in
  check_int "four cluster counts" 4 (List.length rows);
  List.iter
    (fun r ->
      (* a CDF is monotone and ends at 100% *)
      let rec mono = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      check "lp cdf monotone" true (mono r.Experiments.f4_lp_cdf);
      check "sp cdf monotone" true (mono r.Experiments.f4_sp_cdf);
      check "lp cdf reaches 100" true
        (snd (List.nth r.Experiments.f4_lp_cdf
                (List.length r.Experiments.f4_lp_cdf - 1))
        > 99.);
      check "needs at least one port" true
        (snd (List.hd r.Experiments.f4_lp_cdf) < 100.))
    rows;
  (* more clusters -> fewer LoadR ports needed per bank (the paper's §4
     design rule) *)
  let at_one r =
    snd (List.nth r.Experiments.f4_lp_cdf 1)
  in
  check "8 clusters less port-hungry than 1" true
    (at_one (List.nth rows 3) >= at_one (List.hd rows))

let test_table2_and_5 () =
  check_int "table2 rows" 3 (List.length (Experiments.table2 ()));
  check_int "table5 rows" 15 (List.length (Experiments.table5 ()))

let test_table6_shape () =
  let rows = Experiments.table6 ~loops:(Lazy.force small_suite) () in
  check_int "fifteen configs" 15 (List.length rows);
  let find n = List.find (fun r -> r.Experiments.p_config = n) rows in
  Alcotest.(check (float 0.0001))
    "S64 is the baseline" 1.0 (find "S64").Experiments.p_rel_time;
  (* headline claims: the monolithic S128 is slower than S64 (cycle
     time), and the best hierarchical-clustered organization beats the
     best flat-clustered one *)
  check "S128 slower than S64" true
    ((find "S128").Experiments.p_speedup < 1.0);
  let best_hier =
    List.fold_left max 0.
      (List.map
         (fun n -> (find n).Experiments.p_speedup)
         [ "4C32S16"; "8C32S16"; "8C16S16" ])
  in
  check "hierarchical clustering wins" true
    (best_hier > (find "4C32").Experiments.p_speedup);
  check "traffic minimal at S128" true
    ((find "S128").Experiments.p_traffic
    <= (find "S32").Experiments.p_traffic)

let tests =
  [
    ("classify: cases", `Quick, test_classify_cases);
    ("classify: kernels", `Quick, test_classify_kernels);
    ("metrics: formula", `Quick, test_metrics_formula);
    ("metrics: of outcome", `Quick, test_metrics_of_outcome);
    ("runner: aggregate", `Quick, test_aggregate);
    ("runner: real memory", `Slow, test_runner_real_memory);
    ("par: ordered map", `Quick, test_par_map_ordered);
    ("par: exception propagation", `Quick, test_par_exception_propagates);
    ("par: jobs=4 deterministic", `Slow, test_parallel_determinism);
    ("experiments: figure1", `Slow, test_figure1_shape);
    ("experiments: table1", `Slow, test_table1_shape);
    ("experiments: table4", `Slow, test_table4_consistent);
    ("experiments: figure4", `Slow, test_figure4_monotone);
    ("experiments: tables 2/5", `Quick, test_table2_and_5);
    ("experiments: table6", `Slow, test_table6_shape);
  ]
