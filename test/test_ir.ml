(* Unit and property tests for the IR: operations, dependence graphs,
   SCC analysis and loop metadata. *)

open Hcrf_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Op *)

let test_op_predicates () =
  check "load is memory" true (Op.is_memory Op.Load);
  check "spill store is memory" true (Op.is_memory Op.Spill_store);
  check "fadd is not memory" false (Op.is_memory Op.Fadd);
  check "fdiv is compute" true (Op.is_compute Op.Fdiv);
  check "loadr is not compute" false (Op.is_compute Op.Load_r);
  check "move is communication" true (Op.is_communication Op.Move);
  check "storer is communication" true (Op.is_communication Op.Store_r);
  check "spill load is not communication" false
    (Op.is_communication Op.Spill_load);
  check "store defines no value" false (Op.defines_value Op.Store);
  check "spill store defines no value" false (Op.defines_value Op.Spill_store);
  check "load defines a value" true (Op.defines_value Op.Load);
  check "storer defines a value" true (Op.defines_value Op.Store_r);
  check "fadd is original" true (Op.is_original Op.Fadd);
  check "move is not original" false (Op.is_original Op.Move)

let test_op_partition () =
  (* every kind is exactly one of memory / compute / communication *)
  List.iter
    (fun k ->
      let classes =
        [ Op.is_memory k; Op.is_compute k; Op.is_communication k ]
      in
      check_int
        (Fmt.str "%s in exactly one class" (Op.kind_name k))
        1
        (List.length (List.filter Fun.id classes)))
    Op.all_kinds

let test_op_names_unique () =
  let names = List.map Op.kind_name Op.all_kinds in
  check_int "kind names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Ddg *)

let diamond () =
  (* l -> a -> s, l -> b -> s *)
  let g = Ddg.create ~name:"diamond" () in
  let l = Ddg.add_node g Op.Load in
  let a = Ddg.add_node g Op.Fadd in
  let b = Ddg.add_node g Op.Fmul in
  let s = Ddg.add_node g Op.Store in
  Ddg.add_edge g ~dep:Dep.True l a;
  Ddg.add_edge g ~dep:Dep.True l b;
  Ddg.add_edge g ~dep:Dep.True a s;
  Ddg.add_edge g ~dep:Dep.True b s;
  (g, l, a, b, s)

let test_ddg_basics () =
  let g, l, a, _, s = diamond () in
  check_int "node count" 4 (Ddg.num_nodes g);
  check_int "edge count" 4 (Ddg.num_edges g);
  check "well-formed" true (Ddg.validate g);
  check_int "load consumers" 2 (List.length (Ddg.consumers g l));
  check_int "store operands" 2 (List.length (Ddg.operands g s));
  check_int "add preds" 1 (List.length (Ddg.preds g a));
  check_int "memory ops" 2 (Ddg.num_memory_ops g);
  check_int "compute ops" 2 (Ddg.num_compute_ops g)

let test_ddg_remove_node () =
  let g, _, a, _, s = diamond () in
  Ddg.remove_node g a;
  check "still well-formed" true (Ddg.validate g);
  check_int "nodes after removal" 3 (Ddg.num_nodes g);
  check_int "store operands after removal" 1
    (List.length (Ddg.operands g s));
  check "removed node is gone" false (Ddg.mem g a)

let test_ddg_remove_edge_single_occurrence () =
  (* x * x: two identical parallel edges; removing one must keep the
     other *)
  let g = Ddg.create () in
  let l = Ddg.add_node g Op.Load in
  let m = Ddg.add_node g Op.Fmul in
  Ddg.add_edge g ~dep:Dep.True l m;
  Ddg.add_edge g ~dep:Dep.True l m;
  check_int "two parallel edges" 2 (List.length (Ddg.operands g m));
  (match Ddg.operands g m with
  | e :: _ -> Ddg.remove_edge g e
  | [] -> Alcotest.fail "missing edge");
  check_int "one edge left" 1 (List.length (Ddg.operands g m));
  check "still well-formed" true (Ddg.validate g)

let test_ddg_copy_independent () =
  let g, l, a, _, _ = diamond () in
  let g' = Ddg.copy g in
  Ddg.remove_node g' a;
  check "original keeps node" true (Ddg.mem g a);
  check_int "original keeps consumers" 2 (List.length (Ddg.consumers g l));
  check "copy is well-formed" true (Ddg.validate g')

let test_ddg_invariants () =
  let g, _, a, b, _ = diamond () in
  let inv = Ddg.add_invariant g ~consumers:[ a; b ] in
  check_int "one invariant" 1 (List.length (Ddg.invariants g));
  Ddg.add_invariant_consumer g ~inv_id:inv a;
  (match Ddg.invariants g with
  | [ i ] -> check_int "consumer list grew" 3 (List.length i.inv_consumers)
  | _ -> Alcotest.fail "expected one invariant");
  Ddg.remove_node g a;
  (match Ddg.invariants g with
  | [ i ] ->
    check "removed node purged from invariant" false
      (List.mem a i.inv_consumers)
  | _ -> Alcotest.fail "expected one invariant")

let test_ddg_has_edge () =
  let g, l, a, _, _ = diamond () in
  match Ddg.operands g a with
  | e :: _ ->
    check "has edge" true (Ddg.has_edge g e);
    Ddg.remove_edge g e;
    check "edge gone" false (Ddg.has_edge g e);
    check "endpoints remain" true (Ddg.mem g l && Ddg.mem g a)
  | [] -> Alcotest.fail "missing edge"

let test_ddg_negative_distance_rejected () =
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  let b = Ddg.add_node g Op.Fadd in
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Ddg.add_edge: negative distance") (fun () ->
      Ddg.add_edge g ~distance:(-1) ~dep:Dep.True a b)

(* ------------------------------------------------------------------ *)
(* Scc *)

let test_scc_acyclic () =
  let g, _, _, _, _ = diamond () in
  check "no recurrence in a DAG" false (Scc.has_recurrence g);
  check_int "four singleton components" 4 (List.length (Scc.sccs g))

let test_scc_self_loop () =
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~distance:1 ~dep:Dep.True a a;
  check "self loop is a recurrence" true (Scc.has_recurrence g);
  check_int "one recurrence" 1 (List.length (Scc.recurrences g))

let test_scc_cycle () =
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  let b = Ddg.add_node g Op.Fmul in
  let c = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~dep:Dep.True a b;
  Ddg.add_edge g ~dep:Dep.True b c;
  Ddg.add_edge g ~distance:2 ~dep:Dep.True c a;
  let recs = Scc.recurrences g in
  check_int "one recurrence" 1 (List.length recs);
  check_int "three nodes in it" 3 (List.length (List.hd recs))

let test_scc_two_components () =
  let g = Ddg.create () in
  let a = Ddg.add_node g Op.Fadd in
  let b = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~distance:1 ~dep:Dep.True a a;
  Ddg.add_edge g ~distance:1 ~dep:Dep.True b b;
  Ddg.add_edge g ~dep:Dep.True a b;
  check_int "two recurrences" 2 (List.length (Scc.recurrences g))

(* ------------------------------------------------------------------ *)
(* Loop *)

let test_loop_metadata () =
  let g, l, _, _, s = diamond () in
  let loop =
    Loop.make ~trip_count:10 ~entries:3
      ~streams:[ { Loop.op = l; base = 0; stride = 8 } ]
      g
  in
  check_int "total iterations" 30 (Loop.total_iterations loop);
  check_int "memory refs per iter" 2 (Loop.memory_refs_per_iter loop);
  check "stream found" true (Loop.stream_for loop l <> None);
  check "no stream for store" true (Loop.stream_for loop s = None)

let test_loop_rejects_bad_counts () =
  let g, _, _, _, _ = diamond () in
  Alcotest.check_raises "zero trip count"
    (Invalid_argument "Loop.make: trip_count < 1") (fun () ->
      ignore (Loop.make ~trip_count:0 g))

(* daxpy with a second stream on its first load, in both list orders.
   The cache simulator replays only an op's first stream while the key
   sorts the streams, so the two orders would share one key and
   simulate differently: [make] refuses both. *)
let test_loop_rejects_two_streams_on_one_op () =
  let d = Hcrf_workload.Kernels.daxpy () in
  let first = List.hd d.Loop.streams in
  let extra =
    { first with Loop.base = first.Loop.base + 28_680; stride = 0 }
  in
  List.iter
    (fun streams ->
      Alcotest.check_raises "two streams on one op"
        (Invalid_argument "Loop.make: two streams on one op") (fun () ->
          ignore
            (Loop.make ~trip_count:d.Loop.trip_count ~entries:d.Loop.entries
               ~streams d.Loop.ddg)))
    [ d.Loop.streams @ [ extra ]; extra :: d.Loop.streams ]

(* ------------------------------------------------------------------ *)
(* Properties over generated graphs *)

let suite_graphs = lazy (Hcrf_workload.Suite.generate ~n:40 ())

let prop_generated_well_formed =
  QCheck.Test.make ~name:"generated DDGs are well-formed" ~count:40
    QCheck.(int_range 0 39)
    (fun i ->
      let l = List.nth (Lazy.force suite_graphs) i in
      Ddg.validate l.Loop.ddg)

let prop_copy_equals =
  QCheck.Test.make ~name:"copy preserves node and edge counts" ~count:40
    QCheck.(int_range 0 39)
    (fun i ->
      let l = List.nth (Lazy.force suite_graphs) i in
      let g = l.Loop.ddg in
      let g' = Ddg.copy g in
      Ddg.num_nodes g = Ddg.num_nodes g'
      && Ddg.num_edges g = Ddg.num_edges g')

let prop_repr_roundtrip =
  (* [of_repr (to_repr g)] must be behaviourally identical to [g]:
     same nodes, kinds, adjacency (order included), invariants, and the
     same id counter (a fresh node gets the same id in both). *)
  QCheck.Test.make ~name:"repr serialization round-trips" ~count:40
    QCheck.(int_range 0 39)
    (fun i ->
      let l = List.nth (Lazy.force suite_graphs) i in
      let g = Ddg.copy l.Loop.ddg in
      let g' = Ddg.of_repr (Ddg.to_repr g) in
      Ddg.validate g'
      && Ddg.name g = Ddg.name g'
      && Ddg.nodes g = Ddg.nodes g'
      && List.for_all
           (fun v ->
             Ddg.kind g v = Ddg.kind g' v
             && Ddg.succs g v = Ddg.succs g' v
             && Ddg.preds g v = Ddg.preds g' v)
           (Ddg.nodes g)
      && Ddg.invariants g = Ddg.invariants g'
      && Ddg.add_node g Op.Fadd = Ddg.add_node g' Op.Fadd)

(* ------------------------------------------------------------------ *)
(* Dense node table on sparse and churned ids *)

let shift_edge = Final_graphs.shift_edge
let shift_repr = Final_graphs.shift_repr

(* Ids shifted past the compactness bound, to slots far down one grown
   array: the graph must answer exactly like the compact one, mapped by
   the shift. *)
let prop_sparse_ids_answer_like_compact =
  QCheck.Test.make ~name:"dense ddg: shifted ids answer like compact ids"
    ~count:20
    QCheck.(pair (int_range 0 39) bool)
    (fun (i, far) ->
      let by = if far then 100_000 else 1_000 in
      let r = Ddg.to_repr (List.nth (Lazy.force suite_graphs) i).Loop.ddg in
      let g = Ddg.of_repr r and g' = Ddg.of_repr (shift_repr by r) in
      let edges = List.map (shift_edge by) in
      Ddg.validate g'
      && Ddg.num_nodes g' = Ddg.num_nodes g
      && Ddg.num_edges g' = Ddg.num_edges g
      && Ddg.nodes g' = List.map (( + ) by) (Ddg.nodes g)
      && Ddg.edges g' = edges (Ddg.edges g)
      && List.for_all
           (fun v ->
             Ddg.mem g' (v + by)
             && (not (Ddg.mem g' v))
             && Ddg.kind g' (v + by) = Ddg.kind g v
             && Ddg.succs g' (v + by) = edges (Ddg.succs g v)
             && Ddg.preds g' (v + by) = edges (Ddg.preds g v))
           (Ddg.nodes g)
      && Ddg.to_repr g' = shift_repr by r
      && Ddg.to_repr (Ddg.copy g') = shift_repr by r)

let test_of_repr_rejects_bad_ids () =
  let r = Ddg.to_repr (List.hd (Lazy.force suite_graphs)).Loop.ddg in
  let id, _, s, p = List.hd r.Ddg.repr_nodes in
  let with_extra node = { r with Ddg.repr_nodes = r.Ddg.repr_nodes @ [ node ] } in
  Alcotest.check_raises "repeated id"
    (Invalid_argument (Fmt.str "Ddg.of_repr: node %d listed twice" id))
    (fun () -> ignore (Ddg.of_repr (with_extra (id, Op.Fmul, s, p))));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Ddg.of_repr: negative node id -1")
    (fun () -> ignore (Ddg.of_repr (with_extra (-1, Op.Fadd, [], []))))

(* A two-node graph with ids 0 and 90: the adds that grow its array past
   90 must carry that node over, not lose it. *)
let test_overflow_moves_into_grown_array () =
  let g =
    Ddg.of_repr
      { Ddg.repr_name = "grow"; repr_next_id = 91; repr_next_inv = 0;
        repr_nodes = [ (0, Op.Load, [], []); (90, Op.Fmul, [], []) ];
        repr_invariants = [] }
  in
  let added = List.init 40 (fun _ -> Ddg.add_node g Op.Fadd) in
  check "id 90 still present" true (Ddg.mem g 90);
  check "kind kept" true (Ddg.kind g 90 = Op.Fmul);
  check "ids in order" true (Ddg.nodes g = (0 :: 90 :: added));
  Ddg.add_edge g ~dep:Dep.True 90 (List.hd added);
  check "valid" true (Ddg.validate g);
  Ddg.remove_node g 90;
  check "removed" false (Ddg.mem g 90);
  check_int "count" 41 (Ddg.num_nodes g)

module Int_map = Map.Make (Int)

type churn = Add of Op.kind | Remove of int | Edge of int * int * int | Copy | Repr

let churn_gen =
  QCheck.Gen.(
    frequency
      [ (8, map (fun k -> Add k) (oneofl Op.all_kinds));
        (1, map (fun i -> Remove i) small_nat);
        (3, map3 (fun a b d -> Edge (a, b, d)) small_nat small_nat (int_bound 2));
        (1, return Copy);
        (1, return Repr) ])

(* A graph whose few nodes have ids spread up to 120 (many past the
   compactness bound) churned by adds, which grow the array past them,
   removals, edges, copies and repr round trips; after every step it
   must agree with a [Map] model of its nodes and a multiset of its
   edges. *)
let prop_churn_agrees_with_map_model =
  QCheck.Test.make ~name:"dense ddg: churn across array growth = Map model"
    ~count:100
    QCheck.(
      pair
        (make Gen.(list_size (int_range 1 8) (int_bound 120)))
        (make Gen.(list_size (int_range 20 200) churn_gen)))
    (fun (seed_ids, ops) ->
      let seed_ids = List.sort_uniq compare seed_ids in
      let g =
        ref
          (Ddg.of_repr
             { Ddg.repr_name = "churn";
               repr_next_id = 1 + List.fold_left max 0 seed_ids;
               repr_next_inv = 0;
               repr_nodes = List.map (fun id -> (id, Op.Fadd, [], [])) seed_ids;
               repr_invariants = [] })
      in
      let model =
        ref (List.fold_left (fun m id -> Int_map.add id Op.Fadd m) Int_map.empty seed_ids)
      in
      let medges = ref [] in
      let nth i = fst (List.nth (Int_map.bindings !model) (i mod Int_map.cardinal !model)) in
      let key (e : Ddg.edge) = (e.src, e.dst, e.distance) in
      let sorted l = List.sort compare (List.map key l) in
      let agrees () =
        let ids = List.map fst (Int_map.bindings !model) in
        Ddg.validate !g
        && Ddg.nodes !g = ids
        && Ddg.num_nodes !g = Int_map.cardinal !model
        && Ddg.num_edges !g = List.length !medges
        && sorted (Ddg.edges !g) = List.sort compare !medges
        && List.for_all
             (fun id ->
               Ddg.kind !g id = Int_map.find id !model
               && sorted (Ddg.succs !g id)
                  = List.sort compare (List.filter (fun (s, _, _) -> s = id) !medges)
               && sorted (Ddg.preds !g id)
                  = List.sort compare (List.filter (fun (_, d, _) -> d = id) !medges))
             ids
        && List.for_all
             (fun id -> Ddg.mem !g id = Int_map.mem id !model)
             (List.init 300 Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add k ->
            let id = Ddg.add_node !g k in
            model := Int_map.add id k !model
          | Remove i when not (Int_map.is_empty !model) ->
            let id = nth i in
            Ddg.remove_node !g id;
            model := Int_map.remove id !model;
            medges := List.filter (fun (s, d, _) -> s <> id && d <> id) !medges
          | Edge (a, b, d) when not (Int_map.is_empty !model) ->
            let a = nth a and b = nth b in
            Ddg.add_edge !g ~distance:d ~dep:Dep.True a b;
            medges := (a, b, d) :: !medges
          | Remove _ | Edge _ -> ()
          | Copy -> g := Ddg.copy !g
          | Repr -> g := Ddg.of_repr (Ddg.to_repr !g));
          agrees ())
        ops)

let prop_cycles_carry_distance =
  (* every recurrence circuit must contain a loop-carried edge, otherwise
     the loop would be unschedulable *)
  QCheck.Test.make ~name:"every SCC cycle has distance >= 1" ~count:40
    QCheck.(int_range 0 39)
    (fun i ->
      let l = List.nth (Lazy.force suite_graphs) i in
      let g = l.Loop.ddg in
      List.for_all
        (fun scc ->
          let in_scc v = List.mem v scc in
          (* total distance around the component is positive: at least
             one edge inside the SCC carries distance *)
          List.exists
            (fun v ->
              List.exists
                (fun (e : Ddg.edge) -> in_scc e.dst && e.distance > 0)
                (Ddg.succs g v))
            scc)
        (Scc.recurrences g))

(* The array Tarjan walk against the hash-table reference
   (test/scc_ref.ml): the same components in the same order, on suite,
   kernel, generated and engine-made graphs (test/final_graphs.ml),
   with their ids as built or shifted past the compactness bound. *)
let prop_scc_equals_reference =
  QCheck.Test.make ~name:"scc: array walk = hash-table reference" ~count:160
    QCheck.(triple (int_range 0 3) (int_range 0 200) (int_range 0 2))
    (fun (source, i, shift) ->
      let g =
        match source with
        | 0 -> (List.nth (Lazy.force suite_graphs) (i mod 40)).Loop.ddg
        | 1 ->
          let kernels = Hcrf_workload.Kernels.all in
          (snd (List.nth kernels (i mod List.length kernels)) ()).Loop.ddg
        | 2 ->
          let rng = Hcrf_workload.Rng.create ~seed:(0x5CC + (i * 7919)) in
          (Hcrf_workload.Genloop.generate ~rng ~index:i ()).Loop.ddg
        | _ ->
          let finals = Lazy.force Final_graphs.all in
          let _, _, g = List.nth finals (i mod List.length finals) in
          g
      in
      let g =
        match shift with
        | 0 -> g
        | k -> Ddg.of_repr (shift_repr (if k = 1 then 1_000 else 100_000)
                              (Ddg.to_repr g))
      in
      Scc.sccs g = Scc_ref.sccs g)

type edge_op =
  | E_add of int * int * Dep.t * int
  | E_dup of int      (* add a parallel copy of an existing edge *)
  | E_remove of int   (* remove one occurrence of an existing edge *)
  | E_absent          (* remove an edge that is not there *)
  | E_node
  | E_drop of int     (* remove a node and its edges *)
  | E_copy
  | E_repr

let edge_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map3 (fun (a, b) dep d -> E_add (a, b, dep, d))
             (pair small_nat small_nat)
             (oneofl [ Dep.True; Dep.True; Dep.Anti; Dep.Output ])
             (int_bound 2));
        (3, map (fun i -> E_dup i) small_nat);
        (4, map (fun i -> E_remove i) small_nat);
        (1, return E_absent);
        (1, return E_node);
        (1, map (fun i -> E_drop i) small_nat);
        (1, return E_copy);
        (1, return E_repr) ])

(* The non-[True] counters behind [consumers]/[operands]: after every
   add, parallel add, remove (of a present or an absent edge), node
   removal, copy and repr round trip, [validate] finds the counters in
   step with the lists, [consumers]/[operands] are the [True] part of
   [succs]/[preds], and are those very lists when nothing else is in
   them. *)
let prop_true_edge_counters =
  QCheck.Test.make ~name:"ddg: non-True counters follow every edit"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 1 80) edge_op_gen))
    (fun ops ->
      let g = ref (Ddg.create ~name:"counters" ()) in
      for _ = 1 to 6 do ignore (Ddg.add_node !g Op.Fadd) done;
      let is_true (e : Ddg.edge) = Dep.equal e.dep Dep.True in
      let pick l i = List.nth l (i mod List.length l) in
      let consistent () =
        Ddg.validate !g
        && List.for_all
             (fun v ->
               let succs = Ddg.succs !g v and preds = Ddg.preds !g v in
               Ddg.consumers !g v = List.filter is_true succs
               && Ddg.operands !g v = List.filter is_true preds
               && ((not (List.for_all is_true succs))
                  || Ddg.consumers !g v == succs)
               && ((not (List.for_all is_true preds))
                  || Ddg.operands !g v == preds))
             (Ddg.nodes !g)
      in
      List.for_all
        (fun op ->
          let nodes = Ddg.nodes !g and edges = Ddg.edges !g in
          (match op with
          | E_add (a, b, dep, distance) when nodes <> [] ->
            Ddg.add_edge !g ~distance ~dep (pick nodes a) (pick nodes b)
          | E_dup i when edges <> [] ->
            let e = pick edges i in
            Ddg.add_edge !g ~distance:e.distance ~dep:e.dep e.src e.dst
          | E_remove i when edges <> [] -> Ddg.remove_edge !g (pick edges i)
          | E_absent when nodes <> [] ->
            let v = List.hd nodes in
            Ddg.remove_edge !g
              { Ddg.src = v; dst = v; dep = Dep.Output; distance = 99 }
          | E_node -> ignore (Ddg.add_node !g Op.Fmul)
          | E_drop i when List.length nodes > 1 ->
            Ddg.remove_node !g (pick nodes i)
          | E_copy -> g := Ddg.copy !g
          | E_repr -> g := Ddg.of_repr (Ddg.to_repr !g)
          | E_add _ | E_dup _ | E_remove _ | E_absent | E_drop _ -> ());
          consistent ())
        ops)

(* x * x, and copies whose adjacency lists disagree on how often the
   parallel edge occurs: each edge still appears on both sides, so only
   a count tells them apart.  The copy that drops one in-edge keys like
   the original (the key reads out-edges), yet gives the multiply one
   operand. *)
let test_validate_counts_parallel_edges () =
  let g = Ddg.create ~name:"square" () in
  let x = Ddg.add_node g Op.Load in
  let m = Ddg.add_node g Op.Fmul in
  let s = Ddg.add_node g Op.Store in
  Ddg.add_edge g ~dep:Dep.True x m;
  Ddg.add_edge g ~dep:Dep.True x m;
  Ddg.add_edge g ~dep:Dep.True m s;
  check "square is well-formed" true (Ddg.validate g);
  let r = Ddg.to_repr g in
  let edit v ~succs ~preds =
    Ddg.of_repr
      { r with
        Ddg.repr_nodes =
          List.map
            (fun ((id, k, ss, ps) as n) ->
              if id = v then (id, k, succs ss, preds ps) else n)
            r.Ddg.repr_nodes }
  in
  let drop = function _ :: l -> l | [] -> [] in
  let dup = function e :: l -> e :: e :: l | [] -> [] in
  let dropped = edit m ~succs:Fun.id ~preds:drop in
  check_int "one operand left" 1 (List.length (Ddg.operands dropped m));
  check "same key" true
    (String.equal (Loop.key (Loop.make g)) (Loop.key (Loop.make dropped)));
  check "in-edge dropped" false (Ddg.validate dropped);
  List.iter
    (fun (what, g) -> check what false (Ddg.validate g))
    [ ("out-edge dropped", edit x ~succs:drop ~preds:Fun.id);
      ("in-edge repeated", edit m ~succs:Fun.id ~preds:dup);
      ("out-edge repeated", edit x ~succs:dup ~preds:Fun.id) ]

let tests =
  [
    ("op: predicates", `Quick, test_op_predicates);
    ("op: exactly one class", `Quick, test_op_partition);
    ("op: names unique", `Quick, test_op_names_unique);
    ("ddg: basics", `Quick, test_ddg_basics);
    ("ddg: remove node", `Quick, test_ddg_remove_node);
    ("ddg: parallel edges", `Quick, test_ddg_remove_edge_single_occurrence);
    ("ddg: copy independent", `Quick, test_ddg_copy_independent);
    ("ddg: invariants", `Quick, test_ddg_invariants);
    ("ddg: has_edge", `Quick, test_ddg_has_edge);
    ("ddg: negative distance", `Quick, test_ddg_negative_distance_rejected);
    ("scc: acyclic", `Quick, test_scc_acyclic);
    ("scc: self loop", `Quick, test_scc_self_loop);
    ("scc: cycle", `Quick, test_scc_cycle);
    ("scc: two components", `Quick, test_scc_two_components);
    ("loop: metadata", `Quick, test_loop_metadata);
    ("loop: bad counts", `Quick, test_loop_rejects_bad_counts);
    QCheck_alcotest.to_alcotest prop_generated_well_formed;
    QCheck_alcotest.to_alcotest prop_copy_equals;
    QCheck_alcotest.to_alcotest prop_repr_roundtrip;
    QCheck_alcotest.to_alcotest prop_cycles_carry_distance;
    ("ddg: of_repr rejects repeated and negative ids", `Quick,
     test_of_repr_rejects_bad_ids);
    ("ddg: overflow ids move into a grown array", `Quick,
     test_overflow_moves_into_grown_array);
    QCheck_alcotest.to_alcotest prop_sparse_ids_answer_like_compact;
    QCheck_alcotest.to_alcotest prop_churn_agrees_with_map_model;
    QCheck_alcotest.to_alcotest prop_scc_equals_reference;
    QCheck_alcotest.to_alcotest prop_true_edge_counters;
    ("loop: two streams on one op refused", `Quick,
     test_loop_rejects_two_streams_on_one_op);
    ("ddg: validate counts parallel edges", `Quick,
     test_validate_counts_parallel_edges);
  ]
