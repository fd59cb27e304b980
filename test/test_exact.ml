(* Tests for the exact small-loop scheduler: certification of the small
   workbench loops against the heuristic, the QCheck optimality/validity
   property, campaign determinism with the Optimality oracle armed, the
   committed optimality-gap corpus, and shrinker determinism. *)

open Hcrf_ir
module Exact = Hcrf_exact.Exact
module Engine = Hcrf_sched.Engine
module Mii = Hcrf_sched.Mii
module Latency = Hcrf_sched.Latency
module Validate = Hcrf_sched.Validate
module Pipe_exec = Hcrf_pipesim.Pipe_exec
module Check = Hcrf_check.Check

let config name = Hcrf_model.Presets.of_notation name

(* Original-node count of a loop (what the exact search branches on). *)
let nodes_of (loop : Loop.t) = Ddg.num_nodes loop.Loop.ddg

(* Every <= 10-node loop of the workbench prefix must be certified
   optimal (lower bound exhausted and witness at the bound) within the
   default budget, on a monolithic, a clustered and a hierarchical
   machine; and the heuristic must never beat the certified bound. *)
let test_workbench_certified () =
  let loops =
    List.filter
      (fun l -> nodes_of l <= 10)
      (Hcrf_workload.Suite.generate ~n:64 ())
  in
  Alcotest.(check bool)
    (Fmt.str "workbench prefix has small loops (got %d)" (List.length loops))
    true
    (List.length loops >= 5);
  List.iter
    (fun cname ->
      let cfg = config cname in
      List.iter
        (fun (loop : Loop.t) ->
          let r = Exact.solve cfg loop.Loop.ddg in
          let label =
            Fmt.str "%s %s (%d nodes)" cname (Loop.name loop) (nodes_of loop)
          in
          Alcotest.(check bool)
            (Fmt.str "%s certified optimal (%a)" label Exact.pp r)
            true r.Exact.x_optimal;
          match Engine.schedule cfg loop.Loop.ddg with
          | Error _ -> ()
          | Ok o ->
            Alcotest.(check bool)
              (Fmt.str "%s heuristic ii=%d >= certified lb=%d" label
                 o.Engine.ii r.Exact.x_lb)
              true
              (o.Engine.ii >= r.Exact.x_lb))
        loops)
    [ "S64"; "2C32"; "2C32S32" ]

(* PR 5-style oracle property on random tiny loops: the certified bound
   respects the MII floor, the witness passes the independent checker,
   and the cycle-accurate pipeline executor agrees with the sequential
   reference on the witness schedule. *)
let small_params =
  {
    Hcrf_workload.Genloop.default_params with
    min_ops = 3;
    max_ops = 8;
    size_mu = 1.5;
    invariant_max = 2;
  }

let prop_exact_valid =
  QCheck.Test.make ~name:"exact witness: bound, validity, execution"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Hcrf_workload.Rng.create ~seed in
      let loop =
        Hcrf_workload.Genloop.generate ~params:small_params ~rng ~index:0 ()
      in
      List.for_all
        (fun cname ->
          let cfg = config cname in
          let r = Exact.solve cfg loop.Loop.ddg in
          let lat = Latency.make cfg in
          let floor = max 1 (Mii.mii (Mii.bounds ~lat cfg loop.Loop.ddg)) in
          if r.Exact.x_lb < floor then
            QCheck.Test.fail_reportf "%s: lb=%d below mii floor %d" cname
              r.Exact.x_lb floor;
          match r.Exact.x_witness with
          | None -> true
          | Some w ->
            let o = w.Exact.w_outcome in
            if w.Exact.w_ii < r.Exact.x_lb then
              QCheck.Test.fail_reportf "%s: witness ii=%d below lb=%d" cname
                w.Exact.w_ii r.Exact.x_lb;
            (match
               Validate.check o.Engine.schedule o.Engine.graph
             with
            | [] -> ()
            | issue :: _ ->
              QCheck.Test.fail_reportf "%s: witness rejected: %a" cname
                Validate.pp_issue issue);
            (match Pipe_exec.check loop o ~iterations:7 () with
            | Ok _ -> true
            | Error e ->
              QCheck.Test.fail_reportf "%s: pipeline diverged: %a" cname
                Pipe_exec.pp_error e))
        [ "S64"; "2C32"; "2C32S32" ])

(* A 200-case small_exact campaign with the Optimality oracle armed
   must find no oracle failures and be byte-identical across worker
   counts (the exact leg, like every other, is deterministic). *)
let test_campaign_exact_deterministic () =
  let report jobs =
    let ctx = Hcrf_eval.Runner.Ctx.make ~jobs () in
    Check.campaign ~ctx ~shrink:true
      ~param_presets:Check.small_exact_presets ~exact:true ~seed:11
      ~cases:200 ()
  in
  let ra = report 1 and rb = report 4 in
  let sa = Fmt.str "%a" Check.pp_report ra in
  let sb = Fmt.str "%a" Check.pp_report rb in
  Alcotest.(check string) "jobs=1 and jobs=4 reports byte-identical" sa sb;
  Alcotest.(check (list string)) "no oracle failures" []
    (List.map
       (fun f -> f.Check.f_detail)
       (List.filter
          (fun f -> Check.is_failure f.Check.f_kind)
          ra.Check.r_failures));
  match ra.Check.r_exact with
  | None -> Alcotest.fail "campaign dropped the exact summary"
  | Some s ->
    Alcotest.(check bool)
      (Fmt.str "exact leg ran (cases=%d certified=%d)" s.Check.xs_cases
         s.Check.xs_certified)
      true
      (s.Check.xs_cases > 0 && s.Check.xs_certified > 0)

(* Port-constrained 3-way differential: on random small loops under
   per-bank access-port constraints, the three independent layers that
   enforce the port bounds must agree.
   - Accept side: a schedule the engine produced passes [Validate.check]
     (from-scratch port accounting) and replays node by node into a
     fresh [Mrt] (incremental port accounting) without a single
     [can_place] refusal.
   - Reject side: the exact scheduler's phase-A refutation (R2 counts
     the same [Rd]/[Wr] rows) must never refute an II that a validated
     schedule achieves, i.e. the certified lower bound never exceeds the
     heuristic's II; and the bound is monotone in the port budget —
     scarcer ports can only raise it.
   A disagreement here is a shrunk-witness candidate for
   test/gap_corpus/. *)
let port_configs =
  [ "4C16S16@r2w1"; "4C16S16@r3w2"; "2C32S32@Sr2w2"; "4C32@r2w2" ]

let replay_into_mrt (o : Engine.outcome) config =
  let sched = o.Engine.schedule in
  let mrt = Hcrf_sched.Mrt.create config ~ii:o.Engine.ii in
  List.for_all
    (fun v ->
      let e = Hcrf_sched.Schedule.entry_exn sched v in
      let uses =
        Hcrf_sched.Mrt.compile mrt
          (Hcrf_sched.Schedule.uses_of sched o.Engine.graph v
             ~loc:e.Hcrf_sched.Schedule.loc)
      in
      let fits =
        Hcrf_sched.Mrt.can_place_c mrt uses
          ~cycle:e.Hcrf_sched.Schedule.cycle
      in
      if fits then
        Hcrf_sched.Mrt.place_c mrt ~node:v uses
          ~cycle:e.Hcrf_sched.Schedule.cycle;
      fits)
    (Hcrf_sched.Schedule.scheduled_nodes sched)

let prop_port_differential =
  QCheck.Test.make ~name:"ports: validate / mrt / exact-R2 agreement"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Hcrf_workload.Rng.create ~seed in
      let loop =
        Hcrf_workload.Genloop.generate ~params:small_params ~rng ~index:0 ()
      in
      List.for_all
        (fun cname ->
          let cfg = config cname in
          match Engine.schedule cfg loop.Loop.ddg with
          | Error _ -> true
          | Ok o ->
            (match
               Validate.check o.Engine.schedule o.Engine.graph
             with
            | [] -> ()
            | issue :: _ ->
              QCheck.Test.fail_reportf "%s: validate rejects engine: %a"
                cname Validate.pp_issue issue);
            if not (replay_into_mrt o cfg) then
              QCheck.Test.fail_reportf
                "%s: mrt replay rejects a validated schedule" cname;
            let r = Exact.solve ~witness:false cfg loop.Loop.ddg in
            if r.Exact.x_lb_exhausted && r.Exact.x_lb > o.Engine.ii then
              QCheck.Test.fail_reportf
                "%s: exact refuted ii=%d that validate accepted (lb=%d)"
                cname o.Engine.ii r.Exact.x_lb;
            true)
        port_configs)

let prop_port_lb_monotone =
  QCheck.Test.make ~name:"ports: exact lower bound monotone in budget"
    ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Hcrf_workload.Rng.create ~seed in
      let loop =
        Hcrf_workload.Genloop.generate ~params:small_params ~rng ~index:0 ()
      in
      let lb cname =
        let r = Exact.solve ~witness:false (config cname) loop.Loop.ddg in
        if r.Exact.x_lb_exhausted then Some r.Exact.x_lb else None
      in
      match (lb "4C16S16", lb "4C16S16@r3w2", lb "4C16S16@r2w1") with
      | Some inf, Some rich, Some scarce ->
        if not (inf <= rich && rich <= scarce) then
          QCheck.Test.fail_reportf
            "lb not monotone: inf=%d r3w2=%d r2w1=%d" inf rich scarce
        else true
      | _ -> true)

(* The committed optimality-gap corpus: each reproducer pins a loop the
   heuristic provably schedules above the certified optimum.  Replaying
   recomputes the measurement from scratch; the gap and its detail line
   must match the committed file exactly. *)
let gap_corpus_dir () =
  if Sys.file_exists "gap_corpus" then "gap_corpus" else "test/gap_corpus"

let test_gap_corpus_replay () =
  let files = Hcrf_check.Repro.corpus_files (gap_corpus_dir ()) in
  Alcotest.(check bool)
    (Fmt.str "gap corpus holds >= 3 cases (got %d)" (List.length files))
    true
    (List.length files >= 3);
  List.iter
    (fun path ->
      match Hcrf_check.Repro.load path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok r ->
        let config =
          Hcrf_model.Presets.of_notation ~n_fus:r.Hcrf_check.Repro.n_fus
            ~n_mem_ports:r.Hcrf_check.Repro.n_mem_ports
            r.Hcrf_check.Repro.config
        in
        let config =
          { config with
            Hcrf_machine.Config.lats = r.Hcrf_check.Repro.lats }
        in
        let opts =
          List.assoc r.Hcrf_check.Repro.options Check.options_presets
        in
        (match Check.measure_gap ~opts config r.Hcrf_check.Repro.loop with
        | None -> Alcotest.failf "%s: gap no longer measurable" path
        | Some ((o, x) as m) ->
          Alcotest.(check string)
            (Fmt.str "%s: detail pinned" path)
            r.Hcrf_check.Repro.detail (Check.gap_detail m);
          Alcotest.(check bool)
            (Fmt.str "%s: gap >= 1 (heur=%d optimal=%d)" path
               o.Engine.ii x.Exact.x_lb)
            true
            (o.Engine.ii - x.Exact.x_lb >= 1)))
    files

(* Shrinking is deterministic within one process: two back-to-back gap
   hunts over the same case range must minimize every witness to the
   same bytes (this is what a hash-order-dependent shrink or search
   would break). *)
let test_double_shrink_deterministic () =
  let hunt () =
    List.map Hcrf_check.Repro.to_string
      (Check.hunt_gaps ~max_shrink_evals:150 ~seed:42 ~cases:64 ())
  in
  let a = hunt () in
  let b = hunt () in
  Alcotest.(check bool) "hunt found at least one gap" true (a <> []);
  Alcotest.(check (list string)) "double shrink byte-identical" a b

let tests =
  [
    Alcotest.test_case "workbench small loops certified" `Slow
      test_workbench_certified;
    QCheck_alcotest.to_alcotest prop_exact_valid;
    QCheck_alcotest.to_alcotest prop_port_differential;
    QCheck_alcotest.to_alcotest prop_port_lb_monotone;
    Alcotest.test_case "exact campaign deterministic across jobs" `Slow
      test_campaign_exact_deterministic;
    Alcotest.test_case "gap corpus replay" `Slow test_gap_corpus_replay;
    Alcotest.test_case "double shrink deterministic" `Slow
      test_double_shrink_deterministic;
  ]
