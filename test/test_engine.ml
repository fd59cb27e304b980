(* End-to-end tests of the MIRS_HC engine: every kernel on every RF
   organization must produce a schedule that the independent checker
   accepts, plus anchored IIs, spill behaviour, invariant handling,
   determinism, and the non-iterative baseline. *)

open Hcrf_ir
open Hcrf_machine
open Hcrf_sched

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let published = Hcrf_model.Presets.published

let schedule_ok ?opts config (l : Loop.t) =
  match Hcrf_core.Mirs_hc.schedule ?opts config l.Loop.ddg with
  | Error (`No_schedule ii) ->
    Alcotest.fail
      (Fmt.str "%s on %s: no schedule up to II=%d" (Ddg.name l.Loop.ddg)
         config.Config.name ii)
  | Ok o ->
    let issues = Hcrf_core.Mirs_hc.validate o in
    if issues <> [] then
      Alcotest.fail
        (Fmt.str "%s on %s: %a" (Ddg.name l.Loop.ddg) config.Config.name
           Fmt.(list ~sep:comma Validate.pp_issue)
           issues);
    o

(* every kernel on every published configuration *)
let test_kernels_on_config cname () =
  let config = published cname in
  List.iter
    (fun (_, mk) -> ignore (schedule_ok config (mk ())))
    Hcrf_workload.Kernels.all

let test_anchored_iis () =
  (* recurrence-bound kernels reach exactly their RecMII on the
     monolithic baseline *)
  let config = published "S128" in
  let ii name =
    (schedule_ok config (Hcrf_workload.Kernels.find name)).Engine.ii
  in
  check_int "dot" 4 (ii "dot");
  check_int "tridiag" 8 (ii "tridiag");
  check_int "horner" 8 (ii "horner");
  check_int "norm2" 4 (ii "norm2");
  check_int "prefix_sum" 4 (ii "prefix_sum");
  check_int "daxpy" 1 (ii "daxpy")

let test_ii_at_least_mii () =
  let config = published "4C32" in
  List.iter
    (fun (_, mk) ->
      let o = schedule_ok config (mk ()) in
      check "ii >= mii" true (o.Engine.ii >= o.Engine.mii))
    Hcrf_workload.Kernels.all

let test_deterministic () =
  let config = published "4C16S16" in
  let l = Hcrf_workload.Kernels.find "fir5" in
  let a = schedule_ok config l and b = schedule_ok config l in
  check_int "same ii" a.Engine.ii b.Engine.ii;
  check_int "same sc" a.Engine.sc b.Engine.sc;
  check_int "same node count" (Ddg.num_nodes a.Engine.graph)
    (Ddg.num_nodes b.Engine.graph)

let test_hierarchy_inserts_copies () =
  (* on a hierarchical RF, a load feeding a compute op needs a LoadR and
     a computed store operand needs a StoreR *)
  let config = published "1C32S64" in
  let o = schedule_ok config (Hcrf_workload.Kernels.find "daxpy") in
  let count k =
    Ddg.count_kind o.Engine.graph (Op.equal_kind k)
  in
  check "loadr inserted" true (count Op.Load_r >= 2);
  check "storer inserted" true (count Op.Store_r >= 1);
  check "no moves in hierarchical" true (count Op.Move = 0)

let test_monolithic_inserts_nothing () =
  let config = published "S128" in
  let l = Hcrf_workload.Kernels.find "saxpy3" in
  let o = schedule_ok config l in
  check_int "no inserted ops" (Ddg.num_nodes l.Loop.ddg)
    (Ddg.num_nodes o.Engine.graph)

let test_clustered_uses_moves () =
  (* tree8 has more parallelism than one cluster of 4C32 can hold, so
     cross-cluster values must move *)
  let config = published "4C32" in
  let o = schedule_ok config (Hcrf_workload.Kernels.find "tree8") in
  let moves = Ddg.count_kind o.Engine.graph (Op.equal_kind Op.Move) in
  let used_clusters =
    List.sort_uniq compare
      (List.filter_map
         (fun v ->
           match Schedule.loc_of o.Engine.schedule v with
           | Topology.Cluster c -> Some c
           | Topology.Global -> None)
         (Schedule.scheduled_nodes o.Engine.schedule))
  in
  check "several clusters used" true (List.length used_clusters >= 2);
  check "moves present iff cross-cluster flow" true (moves >= 1)

let test_spill_on_tiny_bank () =
  (* six loop-carried accumulators stay live whatever the II is, so a
     4-register monolithic RF cannot hold them without spilling *)
  let g = Ddg.create ~name:"pressure" () in
  let l = Ddg.add_node g Op.Load in
  for _ = 1 to 3 do
    (* an accumulator whose value is also stored four iterations later:
       its lifetime spans ~4 II whatever the II, so the register demand
       cannot be escaped by slowing the loop down *)
    let a = Ddg.add_node g Op.Fadd in
    Ddg.add_edge g ~dep:Dep.True l a;
    Ddg.add_edge g ~distance:1 ~dep:Dep.True a a;
    let st = Ddg.add_node g Op.Store in
    Ddg.add_edge g ~distance:4 ~dep:Dep.True a st
  done;
  let loop = Loop.make g in
  let tiny =
    Config.make ~lats:Latencies.baseline ~cycle_ns:1.0 (Rf.monolithic 6)
  in
  let o = schedule_ok tiny loop in
  let spills = Ddg.count_kind o.Engine.graph (fun k -> Op.is_spill k) in
  check "spill code inserted" true (spills > 0);
  check "memory traffic grew" true
    (Ddg.num_memory_ops o.Engine.graph > Loop.memory_refs_per_iter loop)

let test_larger_bank_no_spill () =
  let big = Config.make (Rf.monolithic 128) in
  let o = schedule_ok big (Hcrf_workload.Kernels.find "tree8") in
  check_int "no spill needed at 128 regs" 0
    (Ddg.count_kind o.Engine.graph Op.is_spill)

let test_invariant_demotion () =
  (* fir5 has 5 invariants; on a 4-register bank some must be demoted *)
  let tiny = Config.make (Rf.monolithic 4) in
  let l = Hcrf_workload.Kernels.find "fir5" in
  match Hcrf_core.Mirs_hc.schedule tiny l.Loop.ddg with
  | Error _ -> () (* acceptable: may genuinely not fit *)
  | Ok o ->
    let issues = Hcrf_core.Mirs_hc.validate o in
    check "valid if scheduled" true (issues = []);
    check "invariant spill loads present" true
      (Ddg.count_kind o.Engine.graph (Op.equal_kind Op.Spill_load) > 0)

let test_stats_populated () =
  let config = published "4C16S16" in
  let o = schedule_ok config (Hcrf_workload.Kernels.find "cmul") in
  check "attempts counted" true (o.Engine.stats.attempts > 0);
  check "comm ops counted" true (o.Engine.stats.comm_inserted > 0);
  check "seconds measured" true (o.Engine.seconds >= 0.)

let test_budget_zero_fails_fast () =
  (* with no budget the engine cannot schedule anything non-trivial, but
     it must terminate and report failure rather than hang *)
  let config = published "S128" in
  let opts = { Engine.default_options with budget_ratio = 0 } in
  match
    Engine.schedule ~opts config (Hcrf_workload.Kernels.find "fir5").Loop.ddg
  with
  | Error (`No_schedule _) -> ()
  | Ok _ -> Alcotest.fail "expected failure with zero budget"

let test_noniter_never_better_on_suite () =
  (* Table 4's headline: the iterative scheduler wins overall *)
  let config = published "1C32S64" in
  let loops = Hcrf_workload.Suite.generate ~n:30 () in
  let sum_ni = ref 0 and sum_hc = ref 0 in
  List.iter
    (fun (l : Loop.t) ->
      match
        ( Hcrf_core.Noniter.schedule config l.Loop.ddg,
          Hcrf_core.Mirs_hc.schedule config l.Loop.ddg )
      with
      | Ok ni, Ok hc ->
        sum_ni := !sum_ni + ni.Engine.ii;
        sum_hc := !sum_hc + hc.Engine.ii
      | _ -> ())
    loops;
  check
    (Fmt.str "sum II: mirs_hc %d <= noniter %d" !sum_hc !sum_ni)
    true (!sum_hc <= !sum_ni)

let test_prefetch_pressure_on_shared () =
  (* binding prefetching lengthens load lifetimes; in a hierarchical RF
     that pressure lands on the shared bank (the paper's argument for
     the organization) *)
  let config = published "1C32S64" in
  let l = Hcrf_workload.Kernels.find "saxpy3" in
  let miss = Config.miss_cycles config in
  let opts =
    { Engine.default_options with
      load_override =
        (fun v ->
          (* the engine also queries inserted nodes: only original loads
             are prefetched *)
          if
            Ddg.mem l.Loop.ddg v
            && Op.equal_kind (Ddg.kind l.Loop.ddg v) Op.Load
          then Some miss
          else None);
    }
  in
  let o = schedule_ok ~opts config l in
  (* every consumer of a prefetched load is scheduled at least the miss
     latency later: the miss is hidden by the software pipeline *)
  let g = o.Engine.graph in
  Ddg.iter_nodes g (fun n ->
      if Op.equal_kind n.kind Op.Load then
        List.iter
          (fun (e : Ddg.edge) ->
            let gap =
              Schedule.cycle_of o.Engine.schedule e.dst
              + (o.Engine.ii * e.distance)
              - Schedule.cycle_of o.Engine.schedule n.id
            in
            check "consumer waits out the miss" true (gap >= miss))
          (Ddg.consumers g n.id))

(* A node that fits at no location even in an empty reservation table
   (no read or write port, or one read port under a two-operand op)
   fits at no II: the engine answers before trying one. *)
let test_unplaceable_answers_at_once () =
  let l = Hcrf_workload.Kernels.find "fir5" in
  List.iter
    (fun notation ->
      let config = Hcrf_model.Presets.of_notation notation in
      let trace = Hcrf_obs.Trace.create ~label:notation in
      (match Engine.schedule ~trace config l.Loop.ddg with
      | Ok _ -> Alcotest.failf "fir5 on %s: scheduled" notation
      | Error (`No_schedule _) -> ());
      check_int (notation ^ ": no II tried") 0
        (List.length
           (List.filter
              (function Hcrf_obs.Event.II_try _ -> true | _ -> false)
              (Hcrf_obs.Trace.events trace))))
    [ "4C16S16@r0w1"; "4C16S16@r1w1"; "4C32@r0w2"; "4C16S16@r2w0" ]

(* The counters-only histogram of one runner computation. *)
let compute_counted ?(opts = Engine.default_options) config l =
  let trace = Hcrf_obs.Trace.create ~label:(Loop.name l) in
  let entry =
    Hcrf_eval.Runner.compute_entry ~trace ~scenario:Hcrf_eval.Runner.Ideal
      ~opts config l
  in
  let counters = Hcrf_obs.Counters.create () in
  Hcrf_obs.Counters.add_all counters (Hcrf_obs.Trace.events trace);
  let count key =
    Option.value ~default:0
      (List.assoc_opt key (Hcrf_obs.Counters.counts counters))
  in
  (entry, count)

(* The escalation ladder on the cheapest tab6@200 loop that climbs a
   rung: synth0181 on S128 fails its search at budget ratio 6 and is
   scheduled on rung 1 (ratio 16).  The figures are those of the ladder
   as the runner ran it, before it moved into the engine. *)
let test_ladder_rung_one () =
  let l = List.nth (Hcrf_workload.Suite.generate ~n:182 ()) 181 in
  Alcotest.(check string) "loop" "synth0181" (Loop.name l);
  match compute_counted (published "S128") l with
  | Hcrf_cache.Entry.Failed ii, _ ->
    Alcotest.failf "synth0181 on S128: no schedule up to II=%d" ii
  | Hcrf_cache.Entry.Scheduled { outcome; _ }, count ->
    check_int "ii" 15 outcome.s_ii;
    check_int "rungs climbed" 1 outcome.s_stats.retries;
    check_int "ii restarts of the last rung" 0 outcome.s_stats.ii_restarts;
    check_int "ii_try" 26 (count "ii_try");
    check_int "eject" 17566 (count "eject");
    check_int "place" 18826 (count "place");
    check_int "budget.escalate" 1 (count "budget.escalate");
    check_int "one MII pass for every rung" 1 (count "phase.mii")

(* Two loads feeding one add on 4C32 without backtracking (what two of
   the fuzzer's seed-9 no_schedule cases shrink to) fit at no II of
   either rung: the runner escalates once, and its failure names an II of a
   search under the automatic cap, not one near 4096. *)
let test_escalates_at_most_once () =
  let g = Ddg.create ~name:"two_loads" () in
  let a = Ddg.add_node g Op.Load and b = Ddg.add_node g Op.Load in
  let s = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~dep:Dep.True a s;
  Ddg.add_edge g ~dep:Dep.True b s;
  let config = published "4C32" in
  let opts = { Engine.default_options with backtracking = false } in
  List.iter
    (fun budget_ratio ->
      match Engine.schedule ~opts:{ opts with budget_ratio } config g with
      | Ok _ -> Alcotest.failf "scheduled at budget ratio %d" budget_ratio
      | Error (`No_schedule _) -> ())
    [ opts.budget_ratio; 16 ];
  match compute_counted ~opts config (Loop.make g) with
  | Hcrf_cache.Entry.Scheduled _, _ -> Alcotest.fail "scheduled"
  | Hcrf_cache.Entry.Failed ii, count ->
    check_int "budget.escalate" 1 (count "budget.escalate");
    check "last II under the automatic cap" true (ii < 4096)

(* [Mrt.fits_empty], which answers from [Mrt.compile]'s grouping
   without a table, against the probe it replaced: compile each vector
   into an empty table at II 1 and ask for cycle 0.  [Select.create]'s
   per-kind flag is whether some location fits. *)
let test_select_fits_equals_mrt_probe () =
  List.iter
    (fun notation ->
      let config = Hcrf_model.Presets.of_notation notation in
      let sel = Select.create config in
      let mrt = Mrt.create config ~ii:1 in
      List.iter
        (fun kind ->
          let fits loc =
            let uses = Topology.uses config kind loc ~src:None in
            let probe =
              Mrt.can_place_c mrt (Mrt.compile mrt uses) ~cycle:0
            in
            check
              (Fmt.str "%s: %a at %a" notation Op.pp_kind kind
                 Topology.pp_loc loc)
              probe (Mrt.fits_empty config uses);
            probe
          in
          let locs = Topology.exec_locs config kind in
          if not (Op.is_communication kind) then
            check
              (Fmt.str "%s: %a" notation Op.pp_kind kind)
              (List.exists Fun.id (List.map fits locs))
              sel.Select.exec.(Schedule.kind_tag kind).Select.fits)
        Op.all_kinds)
    [ "S64"; "4C32"; "4C16S16"; "8C16S16"; "1C32S64"; "4C16S16@r0w1";
      "4C16S16@r1w1"; "4C32@r0w2"; "4C16S16@r2w0"; "4C16S16@r2w1";
      "2C32S32@Sr4w2"; "4C16S16@r1w1@Sr1w1"; "2C64@r1w0" ]

(* A loop the engine finds unplaceable climbs no rung: one MII and
   ordering pass, no escalation. *)
let test_unplaceable_climbs_no_rung () =
  let config = Hcrf_model.Presets.of_notation "4C16S16@r0w1" in
  match compute_counted config (Hcrf_workload.Kernels.find "fir5") with
  | Hcrf_cache.Entry.Scheduled _, _ -> Alcotest.fail "fir5 scheduled"
  | Hcrf_cache.Entry.Failed _, count ->
    check_int "budget.escalate" 0 (count "budget.escalate");
    check_int "phase.mii" 1 (count "phase.mii");
    check_int "phase.order" 1 (count "phase.order");
    check_int "ii_try" 0 (count "ii_try")

(* ------------------------------------------------------------------ *)
(* Select and Spill on hand-built partial schedules: these pin today's
   policies, so a change to either shows as a diff here. *)

(* An attempt at II 1 over [g], with nothing placed. *)
let attempt_on config g =
  Attempt.create config ~lat:(Latency.make config) ~budget_ratio:6
    ~backtracking:true g ~order:(Ddg.nodes g) ~ii:1
    ~trace:Hcrf_obs.Trace.off ~arena:(Arena.create ())

let place s v c = Attempt.schedule_node s v ~loc:(Topology.Cluster c)

let decided sel s v =
  match Select.decide_loc sel s v with
  | `Loc (Topology.Cluster c) -> c
  | `Loc Topology.Global -> -1
  | `Splice -> -2

let test_select_follows_operand () =
  let config = published "4C16S16" in
  let g = Ddg.create ~name:"select" () in
  let p = Ddg.add_node g Op.Fadd and c = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~dep:Dep.True p c;
  (* enough independent ops to fill cluster 1's FUs at II 1 *)
  let fillers =
    List.init (Config.fus_per_cluster config - 1) (fun _ ->
        Ddg.add_node g Op.Fadd)
  in
  let s = attempt_on config g and sel = Select.create config in
  place s p 1;
  check_int "beside its producer: no fresh copy" 1 (decided sel s c);
  List.iter (fun v -> place s v 1) fillers;
  check_int "cluster 1 saturated: the first cluster of equal cost" 0
    (decided sel s c)

let test_select_first_of_equal_costs () =
  let config = published "4C16S16" in
  let g = Ddg.create ~name:"select" () in
  let a = Ddg.add_node g Op.Fadd and b = Ddg.add_node g Op.Fadd in
  let c = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~dep:Dep.True a c;
  Ddg.add_edge g ~dep:Dep.True b c;
  let s = attempt_on config g and sel = Select.create config in
  check_int "nothing placed: the first candidate" 0 (decided sel s c);
  place s b 3;
  place s a 2;
  (* clusters 2 and 3 each need one operand copied (StoreR + LoadR) and
     hold one op: equal costs, and the first candidate wins *)
  check_int "tie between producers' clusters" 2 (decided sel s c)

let tiny_bank = Topology.Local 0

let lifetime def span =
  { Lifetimes.def; bank = tiny_bank; start = 0; stop = span }

let test_spill_invariant_first () =
  let config = Config.make (Rf.monolithic 4) in
  let g = Ddg.create ~name:"spill" () in
  let v = Ddg.add_node g Op.Fadd and c = Ddg.add_node g Op.Fadd in
  ignore (Ddg.add_invariant g ~consumers:[ c ]);
  let s = attempt_on config g and sp = Spill.create () in
  place s c 0;
  let lts = [ lifetime v 6 ] in
  ignore (Spill.pick_and_spill sp s ~bank:tiny_bank lts);
  check_int "the resident invariant goes first" 1 s.st.m_invariant_spills;
  check_int "no value yet" 0 s.st.m_value_spills;
  ignore (Spill.pick_and_spill sp s ~bank:tiny_bank lts);
  check_int "the invariant is not spilled twice" 1 s.st.m_invariant_spills;
  check "then the value" true (Spill.is_spilled sp v)

let test_spill_longest_span () =
  let config = Config.make (Rf.monolithic 4) in
  let g = Ddg.create ~name:"spill" () in
  let n () = Ddg.add_node g Op.Fadd in
  let a = n () in
  let b = n () in
  let c = n () in
  let d = n () in
  let s = attempt_on config g and sp = Spill.create () in
  let lts = [ lifetime a 3; lifetime b 5; lifetime c 5; lifetime d 1 ] in
  (* the value each call spills, -1 for none *)
  let pick () =
    let fresh v = not (Spill.is_spilled sp v) in
    let before = List.filter fresh [ a; b; c; d ] in
    if Spill.pick_and_spill sp s ~bank:tiny_bank lts = 0 then -1
    else List.find (fun v -> not (fresh v)) before
  in
  let p1 = pick () in
  let p2 = pick () in
  let p3 = pick () in
  let p4 = pick () in
  Alcotest.(check (list int))
    "longest span first, the earlier lifetime on ties, each once, never \
     a span below 2"
    [ b; c; a; -1 ] [ p1; p2; p3; p4 ]

(* property: random suite loops × a rotating set of configs all validate *)
let prop_suite_valid =
  let configs =
    [| "S64"; "S32"; "2C32"; "4C32"; "1C32S64"; "2C32S32"; "4C16S16";
       "8C16S16" |]
  in
  let loops = lazy (Hcrf_workload.Suite.generate ~n:48 ()) in
  QCheck.Test.make ~name:"suite loops validate on all organizations"
    ~count:48
    QCheck.(int_range 0 47)
    (fun i ->
      let l = List.nth (Lazy.force loops) i in
      let config = published configs.(i mod Array.length configs) in
      match Hcrf_eval.Runner.run_loop config l with
      | None -> false
      | Some r ->
        Validate.check r.Hcrf_eval.Runner.outcome.Engine.schedule
          r.Hcrf_eval.Runner.outcome.Engine.graph
        = [])

let tests =
  [
    ("engine: kernels on S128", `Quick, test_kernels_on_config "S128");
    ("engine: kernels on S32", `Quick, test_kernels_on_config "S32");
    ("engine: kernels on 2C64", `Quick, test_kernels_on_config "2C64");
    ("engine: kernels on 4C32", `Quick, test_kernels_on_config "4C32");
    ("engine: kernels on 1C64S32", `Quick, test_kernels_on_config "1C64S32");
    ("engine: kernels on 2C32S32", `Quick, test_kernels_on_config "2C32S32");
    ("engine: kernels on 4C16S16", `Slow, test_kernels_on_config "4C16S16");
    ("engine: kernels on 8C16S16", `Slow, test_kernels_on_config "8C16S16");
    ("engine: anchored IIs", `Quick, test_anchored_iis);
    ("engine: ii >= mii", `Quick, test_ii_at_least_mii);
    ("engine: deterministic", `Quick, test_deterministic);
    ("engine: hierarchy copies", `Quick, test_hierarchy_inserts_copies);
    ("engine: monolithic clean", `Quick, test_monolithic_inserts_nothing);
    ("engine: clustered moves", `Quick, test_clustered_uses_moves);
    ("engine: spill on tiny bank", `Quick, test_spill_on_tiny_bank);
    ("engine: no spill at 128", `Quick, test_larger_bank_no_spill);
    ("engine: invariant demotion", `Quick, test_invariant_demotion);
    ("engine: stats", `Quick, test_stats_populated);
    ("engine: zero budget", `Quick, test_budget_zero_fails_fast);
    ("engine: vs non-iterative", `Slow, test_noniter_never_better_on_suite);
    ("engine: prefetch pressure", `Quick, test_prefetch_pressure_on_shared);
    QCheck_alcotest.to_alcotest ~long:true prop_suite_valid;
    ("engine: unplaceable answers at once", `Quick,
     test_unplaceable_answers_at_once);
    ("engine: ladder climbs rung 1", `Quick, test_ladder_rung_one);
    ("engine: escalates at most once", `Quick, test_escalates_at_most_once);
    ("engine: unplaceable climbs no rung", `Quick,
     test_unplaceable_climbs_no_rung);
    ("select: placeability equals the empty-table probe", `Quick,
     test_select_fits_equals_mrt_probe);
    ("select: beside the operand", `Quick, test_select_follows_operand);
    ("select: first of equal costs", `Quick, test_select_first_of_equal_costs);
    ("spill: invariant first", `Quick, test_spill_invariant_first);
    ("spill: longest span", `Quick, test_spill_longest_span);
  ]
