(* Unit tests for the scheduling substrate: MII bounds, HRMS ordering,
   the modulo reservation table, lifetimes, the priority queue and the
   rotating register allocator. *)

open Hcrf_ir
open Hcrf_machine
open Hcrf_sched

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let s128 = lazy (Hcrf_model.Presets.published "S128")
let kernel = Hcrf_workload.Kernels.find

(* ------------------------------------------------------------------ *)
(* Mii *)

let test_mii_daxpy () =
  let l = kernel "daxpy" in
  let b = Mii.bounds (Lazy.force s128) l.Loop.ddg in
  (* 2 compute ops / 8 FUs -> 1; 3 memory ops / 4 ports -> 1; acyclic *)
  check_int "fu bound" 1 b.Mii.fu;
  check_int "mem bound" 1 b.Mii.mem;
  check_int "rec bound" 1 b.Mii.rec_;
  check_int "mii" 1 (Mii.compute (Lazy.force s128) l.Loop.ddg)

let test_mii_dot_recurrence () =
  (* s += x*y: the accumulator add (latency 4, distance 1) gives
     RecMII 4 *)
  let l = kernel "dot" in
  let b = Mii.bounds (Lazy.force s128) l.Loop.ddg in
  check_int "rec bound" 4 b.Mii.rec_;
  check_int "mii" 4 (Mii.compute (Lazy.force s128) l.Loop.ddg)

let test_mii_tridiag_recurrence () =
  (* x[i] = d[i] - a[i]*x[i-1]: mul + sub in the circuit -> 8 *)
  let l = kernel "tridiag" in
  check_int "mii" 8 (Mii.compute (Lazy.force s128) l.Loop.ddg)

let test_mii_distance_divides () =
  (* a 2-op circuit with distance 2 has RecMII ceil(8/2) = 4 *)
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  let b = Ddg.add_node g Op.Fmul in
  Ddg.add_edge g ~dep:Dep.True a b;
  Ddg.add_edge g ~distance:2 ~dep:Dep.True b a;
  let lat = Latency.make (Lazy.force s128) in
  check_int "recmii" 4 (Mii.rec_mii lat g)

let test_mii_non_pipelined_div () =
  (* 17-cycle non-pipelined divides occupy their FU for 17 slots: two of
     them need ceil(34/8) = 5 cycles of FU issue bandwidth *)
  let g = Ddg.create () in
  ignore (Ddg.add_node g Op.Fdiv);
  ignore (Ddg.add_node g Op.Fdiv);
  let b = Mii.bounds (Lazy.force s128) g in
  check_int "fu bound counts occupancy" 5 b.Mii.fu

let test_mii_mem_ports () =
  let g = Ddg.create () in
  for _ = 1 to 9 do
    ignore (Ddg.add_node g Op.Load)
  done;
  let b = Mii.bounds (Lazy.force s128) g in
  check_int "9 loads on 4 ports" 3 b.Mii.mem

let test_mii_prefetch_raises_recmii () =
  (* scheduling the recurrence load with miss latency lengthens the
     memory-carried circuit *)
  let g = Ddg.create () in
  let l = Ddg.add_node g Op.Load in
  let a = Ddg.add_node g Op.Fadd in
  let st = Ddg.add_node g Op.Store in
  Ddg.add_edge g ~dep:Dep.True l a;
  Ddg.add_edge g ~dep:Dep.True a st;
  Ddg.add_edge g ~distance:1 ~dep:Dep.True st l;
  let config = Lazy.force s128 in
  let hit = Latency.make config in
  let miss = Latency.make ~override:(fun v -> if v = l then Some 10 else None) config in
  check_int "hit-scheduled recmii" 7 (Mii.rec_mii hit g);
  check_int "miss-scheduled recmii" 15 (Mii.rec_mii miss g)

(* ------------------------------------------------------------------ *)
(* Order *)

let test_order_is_permutation () =
  List.iter
    (fun (name, mk) ->
      let l = mk () in
      let order = Order.compute (Lazy.force s128) l.Loop.ddg in
      check (name ^ ": permutation") true
        (List.sort compare order = Ddg.nodes l.Loop.ddg))
    Hcrf_workload.Kernels.all

let test_order_recurrence_first () =
  (* nodes of the hardest recurrence come first *)
  let l = kernel "tridiag" in
  let order = Order.compute (Lazy.force s128) l.Loop.ddg in
  let g = l.Loop.ddg in
  let rec_nodes = List.concat (Scc.recurrences g) in
  let first = List.hd order in
  check "first ordered node is in the recurrence" true
    (List.mem first rec_nodes)

let test_order_asap_alap_bounds () =
  let l = kernel "fir5" in
  let lat = Latency.make (Lazy.force s128) in
  let asap, alap = Order.asap_alap lat l.Loop.ddg in
  List.iter
    (fun v ->
      check "asap <= alap" true (asap v <= alap v);
      check "asap >= 0" true (asap v >= 0))
    (Ddg.nodes l.Loop.ddg)

(* ------------------------------------------------------------------ *)
(* Mrt *)

let test_mrt_place_remove () =
  let config = Lazy.force s128 in
  let mrt = Mrt.create config ~ii:2 in
  let uses = [ (Topology.Mem 0, 1) ] in
  check "empty fits" true (Mrt.can_place mrt uses ~cycle:0);
  (* 4 memory ports: 4 placements at the same slot fit, the 5th not *)
  for n = 1 to 4 do
    Mrt.place mrt ~node:n uses ~cycle:0
  done;
  check "full slot rejects" false (Mrt.can_place mrt uses ~cycle:0);
  check "other slot fits" true (Mrt.can_place mrt uses ~cycle:1);
  check "wraps modulo ii" false (Mrt.can_place mrt uses ~cycle:2);
  Mrt.remove mrt ~node:3;
  check "freed after removal" true (Mrt.can_place mrt uses ~cycle:0);
  check_int "occupancy" 3 (Mrt.occupancy mrt (Topology.Mem 0) ~slot:0)

let test_mrt_non_pipelined_duration () =
  let config = Lazy.force s128 in
  let mrt = Mrt.create config ~ii:4 in
  (* a 17-cycle reservation covers every slot of ii=4 *)
  Mrt.place mrt ~node:1 [ (Topology.Fu 0, 17) ] ~cycle:0;
  for slot = 0 to 3 do
    check_int (Fmt.str "slot %d occupied" slot) 1
      (Mrt.occupancy mrt (Topology.Fu 0) ~slot)
  done;
  Mrt.remove mrt ~node:1;
  for slot = 0 to 3 do
    check_int (Fmt.str "slot %d freed" slot) 0
      (Mrt.occupancy mrt (Topology.Fu 0) ~slot)
  done

let test_mrt_conflicts () =
  let config = Hcrf_model.Presets.published "4C32" in
  let mrt = Mrt.create config ~ii:1 in
  let uses = [ (Topology.Mem 2, 1) ] in
  Mrt.place mrt ~node:7 uses ~cycle:0;
  check "slot full" false (Mrt.can_place mrt uses ~cycle:0);
  check "conflict names the occupant" true
    (Mrt.conflicts mrt uses ~cycle:0 = [ 7 ]);
  check "no conflict on other resource" true
    (Mrt.conflicts mrt [ (Topology.Mem 1, 1) ] ~cycle:0 = [])

let test_mrt_double_place_rejected () =
  let config = Lazy.force s128 in
  let mrt = Mrt.create config ~ii:2 in
  Mrt.place mrt ~node:1 [ (Topology.Fu 0, 1) ] ~cycle:0;
  check "double place raises" true
    (try
       Mrt.place mrt ~node:1 [ (Topology.Fu 0, 1) ] ~cycle:1;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue () =
  let q = Pqueue.create () in
  check "empty" true (Pqueue.is_empty q);
  Pqueue.push q ~priority:2.0 10;
  Pqueue.push q ~priority:1.0 20;
  Pqueue.push q ~priority:3.0 30;
  check_int "size" 3 (Pqueue.size q);
  check "mem" true (Pqueue.mem q 20);
  check "pop lowest priority first" true (Pqueue.pop q = Some 20);
  Pqueue.remove q 30;
  check "pop after remove" true (Pqueue.pop q = Some 10);
  check "drained" true (Pqueue.pop q = None)

(* ------------------------------------------------------------------ *)
(* Lifetimes (via a tiny hand schedule) *)

let test_lifetimes_pressure () =
  let config = Lazy.force s128 in
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  let b = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~dep:Dep.True a b;
  let s = Schedule.create config ~ii:2 in
  Schedule.place s g a ~cycle:0 ~loc:(Topology.Cluster 0);
  Schedule.place s g b ~cycle:8 ~loc:(Topology.Cluster 0);
  let lts = Lifetimes.of_schedule s g in
  (* a's value is born at write-back (cycle 4) and read at cycle 8:
     span 4 over ii=2 -> 2 overlapping copies *)
  (match List.find_opt (fun (l : Lifetimes.lifetime) -> l.def = a) lts with
  | Some l ->
    check_int "birth at write-back" 4 l.Lifetimes.start;
    check_int "until last read" 8 l.Lifetimes.stop
  | None -> Alcotest.fail "missing lifetime");
  check_int "pressure counts overlapped copies" 2
    (Lifetimes.pressure ~ii:2 ~bank:(Topology.Local 0) lts);
  check_int "invariants add residents" 5
    (Lifetimes.pressure ~ii:2 ~bank:(Topology.Local 0)
       ~invariant_residents:3 lts)

let test_lifetimes_loop_carried_read () =
  let config = Lazy.force s128 in
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~distance:1 ~dep:Dep.True a a;
  let s = Schedule.create config ~ii:5 in
  Schedule.place s g a ~cycle:0 ~loc:(Topology.Cluster 0);
  match Lifetimes.of_schedule s g with
  | [ l ] ->
    (* read one iteration later: at cycle 0 + 1*5 *)
    check_int "loop-carried stop" 5 l.Lifetimes.stop;
    check_int "birth" 4 l.Lifetimes.start
  | _ -> Alcotest.fail "expected one lifetime"

(* ------------------------------------------------------------------ *)
(* Regalloc *)

let test_regalloc_simple () =
  let mk def start stop =
    { Lifetimes.def; bank = Topology.Local 0; start; stop }
  in
  (* two disjoint lifetimes share one register *)
  match
    Regalloc.allocate_bank ~ii:4 ~bank:(Topology.Local 0)
      ~capacity:(Cap.Finite 8)
      [ mk 0 0 2; mk 1 2 4 ]
  with
  | Some a -> check_int "one register" 1 a.Regalloc.registers_used
  | None -> Alcotest.fail "allocation failed"

let test_regalloc_overlap () =
  let mk def start stop =
    { Lifetimes.def; bank = Topology.Local 0; start; stop }
  in
  match
    Regalloc.allocate_bank ~ii:4 ~bank:(Topology.Local 0)
      ~capacity:(Cap.Finite 8)
      [ mk 0 0 3; mk 1 1 4; mk 2 2 5 ]
  with
  | Some a ->
    check "needs at least maxlives" true (a.Regalloc.registers_used >= 3)
  | None -> Alcotest.fail "allocation failed"

let test_regalloc_capacity () =
  let mk def start stop =
    { Lifetimes.def; bank = Topology.Local 0; start; stop }
  in
  check "over capacity fails" true
    (Regalloc.allocate_bank ~ii:2 ~bank:(Topology.Local 0)
       ~capacity:(Cap.Finite 1)
       [ mk 0 0 2; mk 1 0 2 ]
    = None)

let prop_regalloc_geq_maxlives =
  QCheck.Test.make ~name:"allocation uses >= MaxLives registers" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 12) (pair (int_range 0 20) (int_range 1 12)))
    (fun spans ->
      let ii = 4 in
      let lts =
        List.mapi
          (fun i (start, len) ->
            { Lifetimes.def = i; bank = Topology.Local 0; start;
              stop = start + len })
          spans
      in
      let maxlives = Lifetimes.pressure ~ii ~bank:(Topology.Local 0) lts in
      match
        Regalloc.allocate_bank ~ii ~bank:(Topology.Local 0) ~capacity:Cap.Inf
          lts
      with
      | Some a -> a.Regalloc.registers_used >= maxlives
      | None -> false)

let prop_mrt_place_remove_roundtrip =
  QCheck.Test.make ~name:"mrt place/remove restores occupancy" ~count:200
    QCheck.(
      pair (int_range 1 16)
        (small_list (pair (int_range 0 40) (int_range 1 20))))
    (fun (ii, reservations) ->
      let config = Lazy.force s128 in
      let mrt = Mrt.create config ~ii in
      List.iteri
        (fun node (cycle, dur) ->
          Mrt.place mrt ~node [ (Topology.Fu 0, dur) ] ~cycle)
        reservations;
      List.iteri (fun node _ -> Mrt.remove mrt ~node) reservations;
      let clean = ref true in
      for slot = 0 to ii - 1 do
        if Mrt.occupancy mrt (Topology.Fu 0) ~slot <> 0 then clean := false
      done;
      !clean)

let prop_pressure_monotone =
  (* removing lifetimes can only lower the requirement *)
  QCheck.Test.make ~name:"MaxLives is monotone in the lifetime set"
    ~count:200
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_range 0 30) (int_range 1 15))))
    (fun (ii, spans) ->
      let lts =
        List.mapi
          (fun i (start, len) ->
            { Lifetimes.def = i; bank = Topology.Local 0; start;
              stop = start + len })
          spans
      in
      let p = Lifetimes.pressure ~ii ~bank:(Topology.Local 0) lts in
      match lts with
      | [] -> p = 0
      | _ :: rest ->
        Lifetimes.pressure ~ii ~bank:(Topology.Local 0) rest <= p)

(* ------------------------------------------------------------------ *)
(* Determinism of the scheduling order sources (the engine replays a
   priority order; any hidden insertion-order dependence would make
   schedules irreproducible) *)

let prop_pqueue_tie_determinism =
  QCheck.Test.make
    ~name:"pqueue: equal-priority ties are insertion-order independent"
    ~count:200
    QCheck.(
      pair
        (list (pair (int_range 0 30) (int_range 0 3)))
        (int_range 0 1000))
    (fun (entries, salt) ->
      (* dedupe ids; tiny priority range -> plenty of ties *)
      let entries =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) entries
      in
      let drain l =
        let q = Pqueue.create () in
        List.iter
          (fun (id, p) -> Pqueue.push q ~priority:(float_of_int p) id)
          l;
        let rec go acc =
          match Pqueue.pop q with
          | None -> List.rev acc
          | Some v -> go (v :: acc)
        in
        go []
      in
      let perm =
        (* a deterministic salt-driven permutation of the insertions *)
        List.sort
          (fun (a, _) (b, _) ->
            compare (((a * 7919) + salt) mod 101, a)
              (((b * 7919) + salt) mod 101, b))
          entries
      in
      drain entries = drain perm)

let prop_order_deterministic =
  QCheck.Test.make
    ~name:"order: a permutation, stable across recomputation and copy"
    ~count:50
    QCheck.(int_range 0 30)
    (fun i ->
      let rng = Hcrf_workload.Rng.create ~seed:(0xABCD + (i * 7919)) in
      let loop = Hcrf_workload.Genloop.generate ~rng ~index:i () in
      let cfg = Lazy.force s128 in
      let o1 = Order.compute cfg loop.Loop.ddg in
      let o2 = Order.compute cfg (Ddg.copy loop.Loop.ddg) in
      o1 = o2 && List.sort compare o1 = Ddg.nodes loop.Loop.ddg)

(* ------------------------------------------------------------------ *)
(* Order against the list-based reference (test/order_ref.ml) *)

(* The Table 5 organizations under their own latencies, and the
   Figure 6 ones under the binding-prefetch latency table. *)
let order_configs =
  lazy
    (List.map (fun c -> (c, false)) (Hcrf_model.Presets.table5_configs ())
    @ List.map (fun c -> (c, true)) (Hcrf_eval.Experiments.figure6_configs ()))

let orders_agree (config, prefetch) (l : Loop.t) =
  let override =
    if prefetch then Hcrf_memsim.Prefetch.plan config l
    else Hcrf_memsim.Prefetch.none
  in
  let lat = Latency.make ~override config in
  Order.compute ~lat config l.Loop.ddg
  = Order_ref.compute ~lat config l.Loop.ddg

let prop_order_equals_reference =
  QCheck.Test.make ~name:"order: equals the list-based reference"
    ~count:200
    QCheck.(pair small_nat (int_range 0 21))
    (fun (i, c) ->
      let rng = Hcrf_workload.Rng.create ~seed:(0x0DE5 + (i * 7919)) in
      let loop = Hcrf_workload.Genloop.generate ~rng ~index:i () in
      orders_agree (List.nth (Lazy.force order_configs) c) loop)

let test_order_equals_reference_everywhere () =
  let loops =
    Hcrf_workload.Suite.generate ~n:200 ()
    @ Hcrf_workload.Suite.kernels ()
    @ List.map Hcrf_frontend.Compile.compile (Hcrf_incr.Progs.program ~n:120)
  in
  List.iter
    (fun ((config, _) as c) ->
      let differ =
        List.filter (fun l -> not (orders_agree c l)) loops
        |> List.map Loop.name
      in
      Alcotest.(check (list string))
        (config.Hcrf_machine.Config.name ^ ": loops ordered differently")
        [] differ)
    (Lazy.force order_configs)

(* ------------------------------------------------------------------ *)
(* Flat-core observational equivalence.

   The data-oriented reservation table (Mrt) and the incremental
   MaxLives tracker (Pressure) must be indistinguishable from the
   association-based reference (Mrt_ref) and the from-scratch
   recomputation (Lifetimes.of_schedule + pressure) on every operation
   sequence.  QCheck shrinks counterexamples; the seeded campaign below
   additionally pins 200 deterministic cases into the tier-1 gate. *)

let equiv_configs =
  lazy
    [
      Hcrf_model.Presets.published "S128";
      Hcrf_model.Presets.published "4C32";
      Hcrf_model.Presets.published "2C32S32";
    ]

(* One MRT trace: interleaved place/remove and conflict queries, every
   observation (can_place, is_placed, conflicts, occupancy) compared
   between the two implementations after each step. *)
let run_mrt_trace config ~ii cmds =
  let rs = Array.of_list (Topology.all_resources config) in
  let nr = Array.length rs in
  let m = Mrt.create config ~ii in
  let r = Mrt_ref.create config ~ii in
  let ok = ref true in
  let same b = if not b then ok := false in
  List.iter
    (fun (act, node, ri, cycle, dur) ->
      let uses = [ (rs.(ri mod nr), dur) ] in
      let uses =
        if (node + ri) mod 3 = 0 then
          (rs.((ri + 1) mod nr), ((dur * 7) mod 4) + 1) :: uses
        else uses
      in
      (match act mod 4 with
      | 0 | 1 ->
        let cm = Mrt.can_place m uses ~cycle in
        same (cm = Mrt_ref.can_place r uses ~cycle);
        if cm && not (Mrt.is_placed m node) then begin
          Mrt.place m ~node uses ~cycle;
          Mrt_ref.place r ~node uses ~cycle
        end
      | 2 ->
        Mrt.remove m ~node;
        Mrt_ref.remove r ~node
      | _ -> ());
      same (Mrt.is_placed m node = Mrt_ref.is_placed r node);
      same (Mrt.conflicts m uses ~cycle = Mrt_ref.conflicts r uses ~cycle);
      Array.iter
        (fun res ->
          for slot = 0 to ii - 1 do
            same (Mrt.occupancy m res ~slot = Mrt_ref.occupancy r res ~slot)
          done)
        rs)
    cmds;
  !ok

(* One Pressure trace: random place/eject steps (plus occasional graph
   rewiring, which must reach the tracker through the Ddg watcher) over
   a generated loop, comparing the incremental requirement and lifetime
   list against the from-scratch reference after every step.  Dirtiness
   is wired exactly as in the engine: the moved node and its operand
   producers on place/unplace, edge sources via the watcher. *)
let run_pressure_trace config ~seed ~index =
  let rng = Hcrf_workload.Rng.create ~seed in
  let loop = Hcrf_workload.Genloop.generate ~rng ~index () in
  let g = loop.Loop.ddg in
  let ii = 1 + Hcrf_workload.Rng.int rng 8 in
  let w = Schedule.Work.create config ~ii in
  let s = Schedule.Work.columns w in
  let press = Pressure.create s g in
  Ddg.set_watcher g (Some (fun u -> Pressure.mark press u));
  let nodes = Array.of_list (Ddg.nodes g) in
  let mark v =
    Pressure.mark press v;
    List.iter
      (fun (e : Ddg.edge) -> Pressure.mark press e.src)
      (Ddg.operands g v)
  in
  let banks =
    Topology.Shared
    :: List.init (Config.clusters config) (fun i -> Topology.Local i)
  in
  let ok = ref true in
  for _ = 1 to 60 do
    let v = nodes.(Hcrf_workload.Rng.int rng (Array.length nodes)) in
    (if Schedule.is_scheduled s v then begin
       mark v;
       Schedule.Work.unplace w v
     end
     else
       let kind = Ddg.kind g v in
       match Topology.exec_locs config kind with
       | [] -> ()
       | locs ->
         let loc =
           List.nth locs (Hcrf_workload.Rng.int rng (List.length locs))
         in
         let cycle = Hcrf_workload.Rng.int rng 40 in
         let cu = Schedule.Work.prepare w g v ~loc in
         if Schedule.Work.fits w cu ~cycle then begin
           Schedule.Work.place w g v cu ~cycle ~loc;
           mark v
         end);
    (if Hcrf_workload.Rng.bool rng 0.1 then
       let v = nodes.(Hcrf_workload.Rng.int rng (Array.length nodes)) in
       match Ddg.succs g v with
       | e :: _ ->
         Ddg.remove_edge g e;
         Ddg.add_edge g ~distance:e.distance ~dep:e.dep e.src e.dst
       | [] -> ());
    let ref_lts = Lifetimes.of_schedule s g in
    if Pressure.lifetimes press <> ref_lts then ok := false;
    List.iter
      (fun bank ->
        if Pressure.pressure press ~bank <> Lifetimes.pressure ~ii ~bank ref_lts
        then ok := false)
      banks
  done;
  Ddg.set_watcher g None;
  !ok

let prop_mrt_flat_equiv_ref =
  QCheck.Test.make ~name:"mrt: flat table = reference on random op traces"
    ~count:200
    QCheck.(
      pair (int_range 1 10)
        (small_list
           (quad (int_range 0 7) (int_range 0 11) (int_range 0 40)
              (pair (int_range (-5) 30) (int_range 1 14)))))
    (fun (ii, cmds) ->
      let cmds = List.map (fun (a, n, r, (c, d)) -> (a, n, r, c, d)) cmds in
      List.for_all
        (fun config -> run_mrt_trace config ~ii cmds)
        (Lazy.force equiv_configs))

let prop_pressure_equiv_lifetimes =
  QCheck.Test.make
    ~name:"pressure: incremental = from-scratch on place/eject traces"
    ~count:60
    QCheck.(pair (int_range 0 1000) (int_range 0 30))
    (fun (seed, index) ->
      List.for_all
        (fun config -> run_pressure_trace config ~seed ~index)
        (Lazy.force equiv_configs))

(* The wheel-occupancy bitmap against the arc-list first-fit
   (test/regalloc_ref.ml): the same assignment, or both fail, on random
   lifetimes, some longer than the whole wheel and some in another
   bank, under tight and unbounded capacities. *)
let prop_regalloc_equals_reference =
  QCheck.Test.make ~name:"regalloc: wheel bitmap = arc-list reference"
    ~count:300
    QCheck.(
      triple (int_range 1 8) (int_range 0 12)
        (small_list (triple (int_range (-20) 40) (int_range 0 30) bool)))
    (fun (ii, cap, spans) ->
      let lts =
        List.mapi
          (fun def (start, span, other) ->
            { Lifetimes.def;
              bank = (if other then Topology.Shared else Topology.Local 0);
              start; stop = start + span })
          spans
      in
      List.for_all
        (fun capacity ->
          Regalloc.allocate_bank ~ii ~bank:(Topology.Local 0) ~capacity lts
          = Regalloc_ref.allocate_bank ~ii ~bank:(Topology.Local 0) ~capacity
              lts)
        [ Cap.Finite cap; Cap.Inf ])

module Pq_model = Set.Make (struct
  type t = float * int

  let compare = compare
end)

(* Each case draws one priority per node from a table, so every push of
   a node uses its one priority: the discipline the indexed heap
   requires. *)
let prop_pqueue_set_model =
  QCheck.Test.make ~name:"pqueue: indexed heap = set model" ~count:200
    QCheck.(
      pair
        (array_of_size (Gen.return 16) (int_range 0 9))
        (small_list (pair (int_range 0 4) (int_range 0 15))))
    (fun (prios, ops) ->
      let q = Pqueue.create () in
      let m = ref Pq_model.empty in
      let ok = ref true in
      List.iter
        (fun (act, node) ->
          let priority = float_of_int prios.(node) /. 2. in
          (match act with
          | 0 | 1 ->
            Pqueue.push q ~priority node;
            m := Pq_model.add (priority, node) !m
          | 2 ->
            Pqueue.remove q node;
            m := Pq_model.filter (fun (_, v) -> v <> node) !m
          | _ -> (
            let expect =
              match Pq_model.min_elt_opt !m with
              | None -> None
              | Some ((_, v) as e) ->
                m := Pq_model.remove e !m;
                Some v
            in
            if Pqueue.pop q <> expect then ok := false));
          if Pqueue.size q <> Pq_model.cardinal !m then ok := false;
          if Pqueue.mem q node <> Pq_model.exists (fun (_, v) -> v = node) !m
          then ok := false)
        ops;
      !ok)

let test_pqueue_repush () =
  let q = Pqueue.create () in
  Pqueue.push q ~priority:1.5 7;
  Pqueue.push q ~priority:1.5 7;
  check_int "same priority: one entry" 1 (Pqueue.size q);
  Alcotest.check_raises "another priority"
    (Invalid_argument "Pqueue.push: node 7 already queued at 1.5, not 2")
    (fun () -> Pqueue.push q ~priority:2. 7);
  check "still at its priority" true (Pqueue.pop q = Some 7 && Pqueue.is_empty q)

(* The engine's use of the queue: the original nodes pushed once each
   in order, then pops interleaved with requeues of nodes not queued
   (ejections), fresh nodes at fractional priorities (inserted copies)
   and removals (spliced copies); every node keeps its first priority.
   The indexed heap must pop, [mem] and [size] exactly as the
   lazy-deletion reference. *)
let prop_pqueue_equals_reference =
  QCheck.Test.make ~name:"pqueue: indexed heap = lazy-deletion reference"
    ~count:300
    QCheck.(
      pair (int_range 1 40)
        (small_list (pair (int_range 0 5) (int_range 0 200))))
    (fun (n0, ops) ->
      let q = Pqueue.create () and r = Pqueue_ref.create () in
      let prio = Hashtbl.create 64 in
      let next = ref n0 in
      let push v =
        let priority = Hashtbl.find prio v in
        Pqueue.push q ~priority v;
        Pqueue_ref.push r ~priority v
      in
      for v = 0 to n0 - 1 do
        Hashtbl.replace prio v (float_of_int v);
        push v
      done;
      let agree v =
        Pqueue.size q = Pqueue_ref.size r
        && Pqueue.is_empty q = Pqueue_ref.is_empty r
        && Pqueue.mem q v = Pqueue_ref.mem r v
      in
      List.for_all
        (fun (act, x) ->
          let v = x mod !next in
          let same_pop =
            match act with
            | 0 | 1 -> Pqueue.pop q = Pqueue_ref.pop r
            | 2 ->
              (* a requeue: only when not queued *)
              if not (Pqueue.mem q v) then push v;
              true
            | 3 ->
              (* a fresh node just ahead of, or behind, an existing one *)
              let n = !next in
              incr next;
              Hashtbl.replace prio n
                (Hashtbl.find prio v +. if x land 1 = 0 then -0.25 else 0.125);
              push n;
              true
            | 4 ->
              (* a re-push at the node's own priority *)
              push v;
              true
            | _ ->
              Pqueue.remove q v;
              Pqueue_ref.remove r v;
              true
          in
          same_pop && agree v)
        ops)

(* Minimized eject-victim witness (shrunk from the campaign's failure
   under a seeded oldest-occupant bug, campaign case 2): one single-slot
   resource filled to capacity, one conflicts query.  The reference
   names the MOST RECENTLY placed occupant — its occupant list is
   consed, so the head is the newest — and the flat table's stack top
   must agree.  A naive flat port reading the bottom of the stack
   (oldest occupant) passes every place/remove/occupancy check and only
   diverges here, which then changes every force-and-eject decision
   downstream. *)
let test_mrt_eject_victim_minimal () =
  let config = Lazy.force s128 in
  let uses = [ (Topology.Mem 0, 1) ] in
  let m = Mrt.create config ~ii:1 in
  let r = Mrt_ref.create config ~ii:1 in
  (* 4 memory ports: fill the only slot with nodes 1..4 *)
  for node = 1 to 4 do
    Mrt.place m ~node uses ~cycle:0;
    Mrt_ref.place r ~node uses ~cycle:0
  done;
  check "reference ejects the most recent" true
    (Mrt_ref.conflicts r uses ~cycle:0 = [ 4 ]);
  check "flat table agrees" true (Mrt.conflicts m uses ~cycle:0 = [ 4 ]);
  (* after ejecting the victim, the next-most-recent becomes the victim *)
  Mrt.remove m ~node:4;
  Mrt_ref.remove r ~node:4;
  Mrt.place m ~node:9 uses ~cycle:0;
  Mrt_ref.place r ~node:9 uses ~cycle:0;
  check "victim follows placement order, not id order" true
    (Mrt.conflicts m uses ~cycle:0 = [ 9 ]
    && Mrt_ref.conflicts r uses ~cycle:0 = [ 9 ])

(* The deterministic gate: 200 cases from seed 42, alternating the three
   organizations, exercising both equivalences.  Fails loudly with the
   case number so a regression is reproducible without QCheck's seed. *)
let test_flat_core_campaign () =
  let configs = Array.of_list (Lazy.force equiv_configs) in
  for case = 0 to 199 do
    let config = configs.(case mod Array.length configs) in
    let rng = Hcrf_workload.Rng.create ~seed:(42 + (case * 7919)) in
    let ii = 1 + Hcrf_workload.Rng.int rng 10 in
    let cmds =
      List.init
        (8 + Hcrf_workload.Rng.int rng 40)
        (fun _ ->
          ( Hcrf_workload.Rng.int rng 8,
            Hcrf_workload.Rng.int rng 12,
            Hcrf_workload.Rng.int rng 41,
            Hcrf_workload.Rng.range rng (-5) 30,
            1 + Hcrf_workload.Rng.int rng 14 ))
    in
    check (Fmt.str "case %d: mrt equivalence" case) true
      (run_mrt_trace config ~ii cmds);
    check
      (Fmt.str "case %d: pressure equivalence" case)
      true
      (run_pressure_trace config ~seed:(42 + case) ~index:(case mod 31))
  done

(* ------------------------------------------------------------------ *)
(* Validate.pp_issue: every constructor renders unambiguously *)

let test_pp_issue_golden () =
  let e = { Ddg.src = 3; dst = 7; dep = Dep.True; distance = 2 } in
  List.iter
    (fun (issue, expect) ->
      Alcotest.(check string)
        expect expect
        (Fmt.str "%a" Validate.pp_issue issue))
    [
      (Validate.Unscheduled 5, "node 5 not scheduled");
      ( Validate.Bad_location (4, Topology.Cluster 2),
        "node 4 at illegal location c2" );
      (Validate.Dependence_violated e, "dependence 3->7 (true,d2) violated");
      ( Validate.Resource_oversubscribed (Topology.Mem 1, 3, 5),
        "resource mem1 oversubscribed at slot 3 (5 reserved)" );
      ( Validate.Bank_mismatch (e, Topology.Local 0, Topology.Shared),
        "operand 3->7 defined in bank L0, read from bank S" );
      ( Validate.Over_capacity (Topology.Shared, 40, 32),
        "bank S: 40 live > 32 registers" );
      ( Validate.Allocation_failed (Topology.Local 3),
        "bank L3: rotating allocation failed" );
    ]

(* ------------------------------------------------------------------ *)
(* Generalized hierarchy: per-bank access ports *)

(* Back-compat invariant: the explicitly-uniform encoding ([@rinfwinf]
   on both levels) is the same machine as the legacy encoding — same
   config fingerprint, same cache keys, and byte-identical schedules and
   metrics, serial or parallel. *)
let test_uniform_ports_backcompat () =
  let open Hcrf_eval in
  let legacy = Hcrf_model.Presets.of_model (Rf.of_notation "4C16S16") in
  let uniform =
    Hcrf_model.Presets.of_model (Rf.of_notation "4C16S16@rinfwinf@Srinfwinf")
  in
  check "uniform rf canonicalizes to the legacy value" true
    (Rf.equal legacy.Config.rf uniform.Config.rf);
  check "config fingerprints equal" true
    (Hcrf_cache.Fingerprint.equal
       (Hcrf_cache.Fingerprint.of_config legacy)
       (Hcrf_cache.Fingerprint.of_config uniform));
  let loops = Hcrf_workload.Suite.generate ~n:10 () in
  List.iter
    (fun (l : Loop.t) ->
      let key c =
        Runner.cache_key ~scenario:Runner.Ideal
          ~opts:Engine.default_options c l
      in
      check
        (Fmt.str "cache key equal on %s" (Loop.name l))
        true
        (Hcrf_cache.Fingerprint.equal (key legacy) (key uniform)))
    loops;
  let digest config jobs =
    let ctx = Runner.Ctx.make ~jobs () in
    let rs = List.filter_map (Runner.run_loop ~ctx config) loops in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    List.iter
      (fun (r : Runner.loop_result) ->
        Fmt.pf ppf "%s ii=%d@.%a@." (Loop.name r.Runner.loop)
          r.Runner.outcome.Engine.ii Schedule.pp
          r.Runner.outcome.Engine.schedule)
      rs;
    Metrics.pp_aggregate ppf (Runner.aggregate config rs);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let base = digest legacy 1 in
  Alcotest.(check string) "uniform encoding, jobs=1" base (digest uniform 1);
  Alcotest.(check string) "uniform encoding, jobs=4" base (digest uniform 4);
  Alcotest.(check string) "legacy encoding, jobs=4" base (digest legacy 4)

(* Port monotonicity at the reservation-table level: a placement
   sequence accepted under scarcer per-bank access ports is accepted
   verbatim under richer ports (and under the unconstrained legacy
   machine, whose banks own no port rows at all). *)
let prop_mrt_port_monotonicity =
  let configs =
    lazy
      (List.map
         (fun n -> Hcrf_model.Presets.of_model (Rf.of_notation n))
         [ "4C16S16@r2w1"; "4C16S16@r3w2"; "4C16S16" ])
  in
  QCheck.Test.make ~name:"mrt: scarcer-port acceptance implies richer"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 6))
    (fun (seed, ii) ->
      let configs = Lazy.force configs in
      let rng = Hcrf_workload.Rng.create ~seed in
      let mrts = List.map (fun c -> (c, Mrt.create c ~ii)) configs in
      let kinds =
        [| Op.Fadd; Op.Fmul; Op.Load; Op.Store; Op.Load_r; Op.Store_r |]
      in
      let ok = ref true in
      for node = 1 to 24 do
        let kind = kinds.(Hcrf_workload.Rng.int rng 6) in
        let cycle = Hcrf_workload.Rng.int rng (4 * ii) in
        let cluster = Hcrf_workload.Rng.int rng 4 in
        let probe (config, mrt) =
          let loc =
            match
              List.find_opt
                (Topology.equal_loc (Topology.Cluster cluster))
                (Topology.exec_locs config kind)
            with
            | Some loc -> Some loc
            | None -> (
              match Topology.exec_locs config kind with
              | loc :: _ -> Some loc
              | [] -> None)
          in
          Option.map
            (fun loc ->
              let src = Some (Topology.read_bank config kind loc) in
              let uses = Topology.uses config kind loc ~src in
              (Mrt.can_place mrt uses ~cycle, mrt, uses))
            loc
        in
        match List.map probe mrts with
        | [ Some (scarce, m1, u1); Some (rich, m2, u2); Some (inf, m3, u3) ]
          ->
          (* identical placement history in all three tables, so
             acceptance must be monotone in the port budget *)
          if scarce && not rich then ok := false;
          if rich && not inf then ok := false;
          (* only advance the state when every table accepts, keeping
             the three histories aligned for the next probe *)
          if scarce && rich && inf then begin
            Mrt.place m1 ~node u1 ~cycle;
            Mrt.place m2 ~node u2 ~cycle;
            Mrt.place m3 ~node u3 ~cycle
          end
        | _ -> ()
      done;
      !ok)

let tests =
  [
    ("mii: daxpy", `Quick, test_mii_daxpy);
    ("mii: dot recurrence", `Quick, test_mii_dot_recurrence);
    ("mii: tridiag recurrence", `Quick, test_mii_tridiag_recurrence);
    ("mii: distance divides", `Quick, test_mii_distance_divides);
    ("mii: non-pipelined div", `Quick, test_mii_non_pipelined_div);
    ("mii: memory ports", `Quick, test_mii_mem_ports);
    ("mii: prefetch raises recmii", `Quick, test_mii_prefetch_raises_recmii);
    ("order: permutation", `Quick, test_order_is_permutation);
    ("order: recurrence first", `Quick, test_order_recurrence_first);
    ("order: asap/alap", `Quick, test_order_asap_alap_bounds);
    ("mrt: place/remove", `Quick, test_mrt_place_remove);
    ("mrt: non-pipelined duration", `Quick, test_mrt_non_pipelined_duration);
    ("mrt: conflicts", `Quick, test_mrt_conflicts);
    ("mrt: double place", `Quick, test_mrt_double_place_rejected);
    ("pqueue: ordering", `Quick, test_pqueue);
    ("pqueue: re-push at another priority raises", `Quick, test_pqueue_repush);
    ("lifetimes: pressure", `Quick, test_lifetimes_pressure);
    ("lifetimes: loop carried", `Quick, test_lifetimes_loop_carried_read);
    ("regalloc: disjoint", `Quick, test_regalloc_simple);
    ("regalloc: overlap", `Quick, test_regalloc_overlap);
    ("regalloc: capacity", `Quick, test_regalloc_capacity);
    ("validate: pp_issue golden", `Quick, test_pp_issue_golden);
    ("mrt: eject-victim minimal witness", `Quick, test_mrt_eject_victim_minimal);
    ("flat core: 200-case seed-42 campaign", `Quick, test_flat_core_campaign);
    QCheck_alcotest.to_alcotest prop_mrt_flat_equiv_ref;
    QCheck_alcotest.to_alcotest prop_pressure_equiv_lifetimes;
    QCheck_alcotest.to_alcotest prop_pqueue_set_model;
    QCheck_alcotest.to_alcotest prop_pqueue_equals_reference;
    QCheck_alcotest.to_alcotest prop_regalloc_equals_reference;
    QCheck_alcotest.to_alcotest prop_regalloc_geq_maxlives;
    QCheck_alcotest.to_alcotest prop_mrt_place_remove_roundtrip;
    QCheck_alcotest.to_alcotest prop_pressure_monotone;
    QCheck_alcotest.to_alcotest prop_pqueue_tie_determinism;
    QCheck_alcotest.to_alcotest prop_order_deterministic;
    ("ports: uniform encoding back-compat", `Quick,
     test_uniform_ports_backcompat);
    QCheck_alcotest.to_alcotest prop_mrt_port_monotonicity;
    ("order: equals the reference on suite, kernels, Progs", `Slow,
     test_order_equals_reference_everywhere);
    QCheck_alcotest.to_alcotest prop_order_equals_reference;
  ]
