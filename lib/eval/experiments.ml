(** Drivers reproducing every table and figure of the paper's evaluation.

    Each function returns the data and prints a paper-shaped table with
    [pp_*]; `bench/main.exe` ties them together and EXPERIMENTS.md
    records measured-vs-published values. *)

open Hcrf_machine
open Hcrf_model
open Hcrf_sched

(* ------------------------------------------------------------------ *)
(* Figure 1: IPC vs resources, monolithic RF with unbounded registers  *)

let figure1 ?(ctx = Runner.Ctx.default) ~loops () =
  List.map
    (fun config ->
      let a = Runner.run_suite ~ctx config loops in
      (config.Config.name, Metrics.ipc a))
    (Presets.figure1_configs ())

let pp_figure1 ppf rows =
  Fmt.pf ppf "@[<v>Figure 1: IPC vs. resources (x FUs + y mem ports)@,";
  List.iter (fun (name, ipc) -> Fmt.pf ppf "  %-6s  IPC = %.2f@," name ipc)
    rows;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table 1: cycle breakdown by loop bound for equal-capacity RFs       *)

type table1_row = {
  t1_config : string;
  t1_shares : (Classify.bound * float * float) list;
      (** bound, % of loops, execution cycles *)
  t1_total_cycles : float;
}

(* The 1C64S64 motivational configuration is scheduled with the §4 port
   counts for one cluster (lp=4, sp=2); Table 2's hardware numbers keep
   the published lp=sp=1 (the paper mixes the two). *)
let table1_configs () =
  let row = { Hw_table.c1c64s64 with Hw_table.lp = 4; sp = 2 } in
  [ Presets.published "S128"; Presets.published "4C32";
    Presets.of_published row ]

let table1 ?(ctx = Runner.Ctx.default) ~loops () =
  List.map
    (fun config ->
      let a = Runner.run_suite ~ctx config loops in
      let nloops = float_of_int a.Metrics.loops in
      {
        t1_config = config.Config.name;
        t1_shares =
          List.map
            (fun (b, n, cycles) ->
              (b, 100. *. float_of_int n /. nloops, cycles))
            a.Metrics.bound_share;
        t1_total_cycles = a.Metrics.exec_cycles;
      })
    (table1_configs ())

let pp_table1 ppf rows =
  Fmt.pf ppf "@[<v>Table 1: loop classification (ideal memory)@,";
  Fmt.pf ppf "  %-10s" "bound";
  List.iter (fun r -> Fmt.pf ppf " | %16s" r.t1_config) rows;
  Fmt.pf ppf "@,";
  List.iter
    (fun b ->
      Fmt.pf ppf "  %-10s" (Classify.name b);
      List.iter
        (fun r ->
          let _, pct, cycles =
            List.find (fun (b', _, _) -> b' = b) r.t1_shares
          in
          Fmt.pf ppf " | %5.1f%% %8.2e" pct cycles)
        rows;
      Fmt.pf ppf "@,")
    Classify.all;
  Fmt.pf ppf "  %-10s" "Total";
  List.iter (fun r -> Fmt.pf ppf " | 100.0%% %8.2e" r.t1_total_cycles) rows;
  Fmt.pf ppf "@,@]"

(* ------------------------------------------------------------------ *)
(* Tables 2 and 5: hardware model vs the published numbers             *)

type hw_row = {
  hw_notation : string;
  lp_sp : int * int;
  model_access_c : float;
  model_access_s : float option;
  model_area_total : float;
  model_depth : int;
  model_clock : float;
  model_mem_lat : int;
  model_fu_lat : int;
  published : Hw_table.row;
}

let hw_row (row : Hw_table.row) =
  let config =
    Config.make
      (Presets.rf_of ~notation:row.Hw_table.notation ~lp:row.Hw_table.lp
         ~sp:row.Hw_table.sp)
  in
  let est = Cacti.estimate config in
  let clock = Timing.cycle_ns ~access_ns:est.Cacti.local_access_ns in
  let lats =
    Timing.latencies ~access_ns:est.Cacti.local_access_ns
      ~shared_access_ns:est.Cacti.shared_access_ns
  in
  {
    hw_notation = row.Hw_table.notation;
    lp_sp = (row.Hw_table.lp, row.Hw_table.sp);
    model_access_c = est.Cacti.local_access_ns;
    model_access_s = est.Cacti.shared_access_ns;
    model_area_total = est.Cacti.total_area_mlambda2;
    model_depth = Timing.logic_depth_fo4 ~access_ns:est.Cacti.local_access_ns;
    model_clock = clock;
    model_mem_lat = lats.Latencies.mem_read;
    model_fu_lat = lats.Latencies.fadd;
    published = row;
  }

let table2 () =
  List.map hw_row
    [ Hw_table.find_exn "S128"; Hw_table.find_exn "4C32"; Hw_table.c1c64s64 ]

let table5 () = List.map hw_row Hw_table.table5

let pp_hw_rows ~title ppf rows =
  Fmt.pf ppf "@[<v>%s@," title;
  Fmt.pf ppf
    "  %-9s %-5s | model: accC accS area clk mem/fu | published: accC accS \
     area clk mem/fu@,"
    "config" "lp-sp";
  List.iter
    (fun r ->
      let p = r.published in
      Fmt.pf ppf
        "  %-9s %d-%-3d | %5.3f %5s %6.2f %5.3f %d/%d | %5.3f %5s %6.2f \
         %5.3f %d/%d@,"
        r.hw_notation (fst r.lp_sp) (snd r.lp_sp) r.model_access_c
        (match r.model_access_s with
        | Some a -> Fmt.str "%5.3f" a
        | None -> "--")
        r.model_area_total r.model_clock r.model_mem_lat r.model_fu_lat
        p.Hw_table.access_local_ns
        (match p.Hw_table.access_shared_ns with
        | Some a -> Fmt.str "%5.3f" a
        | None -> "--")
        p.Hw_table.area_total_mlambda2 p.Hw_table.clock_ns
        p.Hw_table.mem_latency p.Hw_table.fu_latency)
    rows;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table 3: static evaluation with unbounded registers                 *)

type table3_row = {
  t3_config : string;
  t3_unbounded : float * int * float; (** %MII, sum II, sched seconds *)
  t3_bounded : float * int * float;
}

let table3 ?(ctx = Runner.Ctx.default) ~loops () =
  List.map
    (fun notation ->
      let run bounded =
        let config =
          Presets.static_config ~bounded_bandwidth:bounded notation
        in
        let a = Runner.run_suite ~ctx config loops in
        (a.Metrics.pct_at_mii, a.Metrics.sum_ii, a.Metrics.sched_seconds)
      in
      {
        t3_config = notation;
        t3_unbounded = run false;
        t3_bounded = run true;
      })
    Presets.table3_notations

let pp_table3 ppf rows =
  Fmt.pf ppf "@[<v>Table 3: static evaluation, unbounded registers@,";
  Fmt.pf ppf "  %-10s | unbounded bw: %%MII sumII time | bounded bw: %%MII \
              sumII time@,"
    "config";
  List.iter
    (fun r ->
      let u1, u2, u3 = r.t3_unbounded and b1, b2, b3 = r.t3_bounded in
      Fmt.pf ppf "  %-10s | %13.1f %5d %5.1fs | %11.1f %5d %5.1fs@,"
        r.t3_config u1 u2 u3 b1 b2 b3)
    rows;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table 4: MIRS_HC vs the non-iterative scheduler of [36]             *)

type table4 = {
  t4_better : int * int * int;  (** loops, sumII noniter, sumII mirs_hc *)
  t4_equal : int * int * int;
  t4_worse : int * int * int;   (** loops where [36] is better *)
}

let table4 ?(config = Presets.published "1C32S64")
    ?(ctx = Runner.Ctx.default) ~loops () =
  let better = ref (0, 0, 0) and equal = ref (0, 0, 0)
  and worse = ref (0, 0, 0) in
  let bump r ni hc =
    let a, b, c = !r in
    r := (a + 1, b + ni, c + hc)
  in
  (* both schedulers run per loop independently: fan the duels out and
     fold the ordered results serially *)
  let duels =
    Runner.par_map ~ctx ~label:Hcrf_ir.Loop.name
      (fun ~trace (l : Hcrf_ir.Loop.t) ->
        ( Hcrf_core.Noniter.schedule ~trace config l.Hcrf_ir.Loop.ddg,
          Hcrf_core.Mirs_hc.schedule ~trace config l.Hcrf_ir.Loop.ddg ))
      loops
  in
  List.iter
    (fun (ni, hc) ->
      match (ni, hc) with
      | Ok ni, Ok hc ->
        let nii = ni.Engine.ii and hii = hc.Engine.ii in
        if hii < nii then bump better nii hii
        else if hii = nii then bump equal nii hii
        else bump worse nii hii
      | Error _, Ok hc ->
        (* the non-iterative scheduler failed: count a large II *)
        bump better (4 * hc.Engine.ii) hc.Engine.ii
      | Ok ni, Error _ -> bump worse ni.Engine.ii (4 * ni.Engine.ii)
      | Error _, Error _ -> ())
    duels;
  { t4_better = !better; t4_equal = !equal; t4_worse = !worse }

let pp_table4 ppf t =
  let row ppf (label, (n, ni, hc)) =
    Fmt.pf ppf "  %-28s %5d loops | sumII [36]=%5d  MIRS_HC=%5d@," label n
      ni hc
  in
  let tot (a, b, c) (a', b', c') = (a + a', b + b', c + c') in
  Fmt.pf ppf "@[<v>Table 4: [36] vs MIRS_HC (hierarchical RF)@,%a%a%a%a@]"
    row ("MIRS_HC better", t.t4_better)
    row ("equal", t.t4_equal)
    row ("[36] better", t.t4_worse)
    row ("Total", tot (tot t.t4_better t.t4_equal) t.t4_worse)

(* ------------------------------------------------------------------ *)
(* Figure 4: LoadR/StoreR port demand CDF                              *)

type figure4_row = {
  f4_clusters : int;
  f4_lp_cdf : (int * float) list;  (** ports k, % of loops needing <= k *)
  f4_sp_cdf : (int * float) list;
}

(* Average per-bank port demand of a loop scheduled with unbounded
   inter-level bandwidth: the number of LoadR (resp. StoreR) operations
   per distributed bank per II cycle, rounded up — the paper's "loops
   that require, on average, a specific number of LoadR ports". *)
let port_demand (o : Engine.outcome) ~clusters =
  let ii = o.Engine.ii in
  let count kind =
    Hcrf_ir.Ddg.count_kind o.Engine.graph (Hcrf_ir.Op.equal_kind kind)
  in
  let avg_ports n = (n + (clusters * ii) - 1) / (clusters * ii) in
  (avg_ports (count Hcrf_ir.Op.Load_r), avg_ports (count Hcrf_ir.Op.Store_r))

let figure4 ?(max_lp = 6) ?(max_sp = 4) ?(ctx = Runner.Ctx.default)
    ~loops () =
  List.map
    (fun clusters ->
      let notation = Fmt.str "%dCinfSinf" clusters in
      let config = Presets.static_config ~bounded_bandwidth:false notation in
      let demands =
        List.filter_map Fun.id
          (Runner.par_map ~ctx ~label:Hcrf_ir.Loop.name
             (fun ~trace (l : Hcrf_ir.Loop.t) ->
               match
                 Hcrf_core.Mirs_hc.schedule ~trace config
                   l.Hcrf_ir.Loop.ddg
               with
               | Ok o -> Some (port_demand o ~clusters)
               | Error _ -> None)
             loops)
      in
      let total = float_of_int (max 1 (List.length demands)) in
      let cdf max_k select =
        List.init (max_k + 1) (fun k ->
            let le =
              List.length (List.filter (fun d -> select d <= k) demands)
            in
            (k, 100. *. float_of_int le /. total))
      in
      {
        f4_clusters = clusters;
        f4_lp_cdf = cdf max_lp fst;
        f4_sp_cdf = cdf max_sp snd;
      })
    [ 1; 2; 4; 8 ]

let pp_figure4 ppf rows =
  Fmt.pf ppf "@[<v>Figure 4: cumulative port demand (unbounded bandwidth)@,";
  List.iter
    (fun r ->
      let item ppf (k, p) = Fmt.pf ppf "<=%d:%5.1f%%" k p in
      Fmt.pf ppf "  %d cluster(s): LoadR  %a@,               StoreR %a@,"
        r.f4_clusters
        Fmt.(list ~sep:(any "  ") item)
        r.f4_lp_cdf
        Fmt.(list ~sep:(any "  ") item)
        r.f4_sp_cdf)
    rows;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table 6: performance with ideal memory                              *)

type perf_row = {
  p_config : string;
  p_exec_cycles : float;
  p_useful : float;
  p_stall : float;
  p_traffic : float;
  p_exec_seconds : float;
  p_rel_time : float;       (** execution time relative to S64 *)
  p_speedup : float;        (** S64 time / this time *)
}

let perf_rows ?(ctx = Runner.Ctx.default) ~scenario ~configs ~loops () =
  let ctx = { ctx with Runner.Ctx.scenario } in
  let aggregates =
    List.map (fun config -> (config, Runner.run_suite ~ctx config loops))
      configs
  in
  let base =
    match
      List.find_opt
        (fun (c, _) -> c.Config.name = "S64")
        aggregates
    with
    | Some (_, a) -> a.Metrics.exec_seconds
    | None -> (
      match aggregates with
      | (_, a) :: _ -> a.Metrics.exec_seconds
      | [] -> 1.)
  in
  List.map
    (fun ((_ : Config.t), a) ->
      {
        p_config = a.Metrics.config;
        p_exec_cycles = a.Metrics.exec_cycles;
        p_useful = a.Metrics.useful;
        p_stall = a.Metrics.stall;
        p_traffic = a.Metrics.total_traffic;
        p_exec_seconds = a.Metrics.exec_seconds;
        p_rel_time = a.Metrics.exec_seconds /. base;
        p_speedup = base /. a.Metrics.exec_seconds;
      })
    aggregates

let table6 ?ctx ~loops () =
  perf_rows ?ctx ~scenario:Runner.Ideal
    ~configs:(Presets.table5_configs ()) ~loops ()

let pp_table6 ppf rows =
  Fmt.pf ppf "@[<v>Table 6: performance, ideal memory (relative to S64)@,";
  Fmt.pf ppf "  %-9s | exec cycles | mem traffic | rel. time | speedup@,"
    "config";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-9s | %11.3e | %11.3e | %9.3f | %7.3f@," r.p_config
        r.p_exec_cycles r.p_traffic r.p_rel_time r.p_speedup)
    rows;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Ablations: which parts of MIRS_HC buy what                          *)

type ablation_row = {
  a_name : string;
  a_sum_ii : int;
  a_pct_mii : float;
  a_failed : int;      (** loops the variant could not schedule *)
  a_seconds : float;
}

(** Scheduler ablations on one configuration: the full iterative engine
    against variants with backtracking disabled, plain topological
    ordering, and smaller/larger Budget ratios. *)
let ablations ?(config = Presets.published "2C32S32")
    ?(ctx = Runner.Ctx.default) ~loops () =
  let variants =
    [
      ("mirs_hc (full)", Engine.default_options);
      ( "no backtracking",
        { Engine.default_options with backtracking = false } );
      ( "topological order",
        { Engine.default_options with ordering = `Topological } );
      ( "neither",
        { Engine.default_options with backtracking = false;
          ordering = `Topological } );
      ("budget 2", { Engine.default_options with budget_ratio = 2 });
      ("budget 16", { Engine.default_options with budget_ratio = 16 });
    ]
  in
  List.map
    (fun (name, opts) ->
      let t0 = Unix.gettimeofday () in
      let sum_ii = ref 0 and at_mii = ref 0 and failed = ref 0 in
      let n = ref 0 in
      let outcomes =
        Runner.par_map ~ctx ~label:Hcrf_ir.Loop.name
          (fun ~trace (l : Hcrf_ir.Loop.t) ->
            Engine.schedule ~opts ~trace config l.Hcrf_ir.Loop.ddg)
          loops
      in
      List.iter
        (fun outcome ->
          incr n;
          match outcome with
          | Ok o ->
            sum_ii := !sum_ii + o.Engine.ii;
            if o.Engine.ii = o.Engine.mii then incr at_mii
          | Error _ -> incr failed)
        outcomes;
      {
        a_name = name;
        a_sum_ii = !sum_ii;
        a_pct_mii =
          (if !n = 0 then 0.
           else 100. *. float_of_int !at_mii /. float_of_int !n);
        a_failed = !failed;
        a_seconds = Unix.gettimeofday () -. t0;
      })
    variants

let pp_ablations ppf rows =
  Fmt.pf ppf "@[<v>Ablations (2C32S32): what each mechanism buys@,";
  Fmt.pf ppf "  %-18s | sumII | %%MII | failed | time@," "variant";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-18s | %5d | %4.1f | %6d | %4.1fs@," r.a_name
        r.a_sum_ii r.a_pct_mii r.a_failed r.a_seconds)
    rows;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Port-scarcity sweep: where does the hierarchy start paying?         *)

type scarcity_row = {
  sc_access : (int * int) option;
      (** per-bank (read, write) ports; [None] is unbounded *)
  sc_flat_sum_ii : int;
  sc_flat_seconds : float;
  sc_hier_sum_ii : int;
  sc_hier_seconds : float;
  sc_speedup : float;  (** flat time / hierarchical time (>1 = hier wins) *)
}

(* The ladder the sweep walks down, richest first.  (2,1) is the floor:
   one read port cannot even feed a two-operand FU. *)
let scarcity_ladder =
  [ None; Some (6, 4); Some (5, 3); Some (4, 3); Some (3, 2); Some (2, 1) ]

(* Uniform access-port override on every first-level bank of [rf]. *)
let rf_with_access rf acc =
  let access =
    Option.map
      (fun (pr, pw) -> Rf.access ~pr:(Cap.Finite pr) ~pw:(Cap.Finite pw))
      acc
  in
  match rf with
  | Rf.Monolithic m -> Rf.Monolithic { m with access }
  | Rf.Clustered c -> Rf.Clustered { c with access }
  | Rf.Hierarchical h -> Rf.Hierarchical { h with local_access = access }

(** Sweep per-bank access ports down [scarcity_ladder] on a flat
    clustered organization and its hierarchical rival (defaults: the
    paper's 4C32 against 4C16S16).  Both are modelled with
    {!Presets.of_model}, so scarcer ports also buy each point a faster
    cycle — the sweep answers the §6 design question end to end: at
    which port count does the hierarchical organization start paying?
    (With rich ports the flat organization's extra capacity wins; the
    narrower the per-bank access budget, the more the hierarchy's
    smaller, cheaper first-level banks claw back.) *)
let port_scarcity ?(flat = "4C32") ?(hier = "4C16S16")
    ?(ctx = Runner.Ctx.default) ~loops () =
  let flat_rf = Rf.of_notation flat and hier_rf = Rf.of_notation hier in
  let run rf acc =
    let config = Presets.of_model (rf_with_access rf acc) in
    Runner.run_suite ~ctx config loops
  in
  List.map
    (fun acc ->
      let f = run flat_rf acc and h = run hier_rf acc in
      {
        sc_access = acc;
        sc_flat_sum_ii = f.Metrics.sum_ii;
        sc_flat_seconds = f.Metrics.exec_seconds;
        sc_hier_sum_ii = h.Metrics.sum_ii;
        sc_hier_seconds = h.Metrics.exec_seconds;
        sc_speedup = f.Metrics.exec_seconds /. h.Metrics.exec_seconds;
      })
    scarcity_ladder

(** First ladder point (walking richest to scarcest) where the
    hierarchy wins on execution time ([None] when the flat organization
    wins at every swept port count). *)
let scarcity_crossover rows =
  List.find_opt (fun r -> r.sc_speedup > 1.) rows
  |> Option.map (fun r -> r.sc_access)

let pp_access ppf = function
  | None -> Fmt.pf ppf "inf"
  | Some (pr, pw) -> Fmt.pf ppf "r%dw%d" pr pw

let pp_port_scarcity ppf rows =
  Fmt.pf ppf "@[<v>Port scarcity: flat vs. hierarchical execution time@,";
  Fmt.pf ppf "  ports | flat sumII  time | hier sumII  time | speedup@,";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %5s | %10d %5.2f | %10d %5.2f | %7.3f@,"
        (Fmt.str "%a" pp_access r.sc_access)
        r.sc_flat_sum_ii r.sc_flat_seconds r.sc_hier_sum_ii
        r.sc_hier_seconds r.sc_speedup)
    rows;
  (match scarcity_crossover rows with
  | Some acc ->
    Fmt.pf ppf "  crossover: hierarchy starts paying at %a@," pp_access acc
  | None ->
    Fmt.pf ppf "  crossover: none — flat wins at every swept port count@,");
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Figure 6: real memory with binding prefetching                      *)

let figure6_configs () =
  List.map Presets.published
    [ "S64"; "2C64"; "4C32"; "1C32S64"; "2C32S32"; "4C32S16"; "8C16S16" ]

let figure6 ?ctx ~loops () =
  let rows =
    perf_rows ?ctx
      ~scenario:(Runner.Real { prefetch = true })
      ~configs:(figure6_configs ()) ~loops ()
  in
  (* Figure 6 normalizes to the *useful* cycles of S64 *)
  let base_useful =
    match List.find_opt (fun r -> r.p_config = "S64") rows with
    | Some r -> r.p_useful
    | None -> 1.
  in
  let base_time =
    match List.find_opt (fun r -> r.p_config = "S64") rows with
    | Some r ->
      r.p_useful
      *. (Presets.published "S64").Config.cycle_ns
    | None -> 1.
  in
  List.map
    (fun r ->
      let cycle =
        (List.find
           (fun (c : Config.t) -> c.Config.name = r.p_config)
           (figure6_configs ()))
          .Config.cycle_ns
      in
      ( r.p_config,
        (r.p_useful /. base_useful, r.p_stall /. base_useful),
        ( r.p_useful *. cycle /. base_time,
          r.p_stall *. cycle /. base_time ) ))
    rows

let pp_figure6 ppf rows =
  Fmt.pf ppf
    "@[<v>Figure 6: real memory + binding prefetch (relative to S64 \
     useful)@,";
  Fmt.pf ppf "  %-9s | cycles useful+stall | time useful+stall@," "config";
  List.iter
    (fun (name, (cu, cs), (tu, ts)) ->
      Fmt.pf ppf "  %-9s | %6.3f + %5.3f = %6.3f | %6.3f + %5.3f = %6.3f@,"
        name cu cs (cu +. cs) tu ts (tu +. ts))
    rows;
  Fmt.pf ppf "@]"
