(* Reference specification of the HRMS order: the original list-based
   [Order.compute], which rebuilds the remaining-node list and filters
   it for adjacency on every pick.  [Hcrf_sched.Order.compute] replaces
   it with the same rule on dense index arrays; the two must return the
   same order list on every graph, which test_sched.ml checks over
   random loops, the suite, the kernels and [Progs] on the Table 5 and
   Figure 6 configurations.  Its recurrences and their RecMII come from
   the reference pass (test/mii_ref.ml), not from the code under test. *)

open Hcrf_ir
open Hcrf_sched

(* ASAP / ALAP over the distance-0 (intra-iteration) subgraph, which is
   acyclic in a well-formed DDG. *)
let asap_alap (lat : Latency.t) (g : Ddg.t) =
  let nodes = Ddg.nodes g in
  let asap = Hashtbl.create 64 and alap = Hashtbl.create 64 in
  let intra_preds v =
    List.filter (fun (e : Ddg.edge) -> e.distance = 0) (Ddg.preds g v)
  in
  let intra_succs v =
    List.filter (fun (e : Ddg.edge) -> e.distance = 0) (Ddg.succs g v)
  in
  (* topological order of the distance-0 subgraph *)
  let indeg = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace indeg v (List.length (intra_preds v)))
    nodes;
  let queue = Queue.create () in
  List.iter (fun v -> if Hashtbl.find indeg v = 0 then Queue.add v queue)
    nodes;
  let topo = ref [] in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    topo := v :: !topo;
    List.iter
      (fun (e : Ddg.edge) ->
        let d = Hashtbl.find indeg e.dst - 1 in
        Hashtbl.replace indeg e.dst d;
        if d = 0 then Queue.add e.dst queue)
      (intra_succs v)
  done;
  let topo = List.rev !topo in
  List.iter
    (fun v ->
      let a =
        List.fold_left
          (fun acc (e : Ddg.edge) ->
            max acc (Hashtbl.find asap e.src + Latency.of_edge lat g e))
          0 (intra_preds v)
      in
      Hashtbl.replace asap v a)
    topo;
  let horizon =
    List.fold_left (fun acc v -> max acc (Hashtbl.find asap v)) 0 nodes
  in
  List.iter
    (fun v ->
      let l =
        List.fold_left
          (fun acc (e : Ddg.edge) ->
            min acc (Hashtbl.find alap e.dst - Latency.of_edge lat g e))
          horizon (intra_succs v)
      in
      Hashtbl.replace alap v l)
    (List.rev topo);
  ( (fun v -> try Hashtbl.find asap v with Not_found -> 0),
    fun v -> try Hashtbl.find alap v with Not_found -> 0 )

(* Nodes lying on a distance-0 path from set [src] to set [dst]. *)
let path_nodes (g : Ddg.t) ~from_set ~to_set =
  let reach_fwd = Hashtbl.create 64 and reach_bwd = Hashtbl.create 64 in
  let rec dfs seen step v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v true;
      List.iter (fun w -> dfs seen step w) (step v)
    end
  in
  let fwd v =
    List.filter_map
      (fun (e : Ddg.edge) -> if e.distance = 0 then Some e.dst else None)
      (Ddg.succs g v)
  and bwd v =
    List.filter_map
      (fun (e : Ddg.edge) -> if e.distance = 0 then Some e.src else None)
      (Ddg.preds g v)
  in
  List.iter (fun v -> dfs reach_fwd fwd v) from_set;
  List.iter (fun v -> dfs reach_bwd bwd v) to_set;
  List.filter
    (fun v ->
      Hashtbl.mem reach_fwd v && Hashtbl.mem reach_bwd v
      && (not (List.mem v from_set))
      && not (List.mem v to_set))
    (Ddg.nodes g)

(** Compute the scheduling priority order.  Returns node ids, highest
    priority first. *)
let compute ?(lat : Latency.t option) config (g : Ddg.t) : int list =
  let lat = match lat with Some l -> l | None -> Latency.make config in
  let asap, alap = asap_alap lat g in
  let mobility v = alap v - asap v in
  let by_asap = List.sort (fun a b -> compare (asap a, a) (asap b, b)) in
  let ordered = ref [] in
  let marked = Hashtbl.create 64 in
  let mark v =
    if not (Hashtbl.mem marked v) then begin
      Hashtbl.replace marked v true;
      ordered := v :: !ordered
    end
  in
  (* 1. recurrences, hardest first, with connecting path nodes *)
  let groups =
    Mii_ref.recurrences lat g
    |> List.sort (fun (a, sa) (b, sb) ->
           compare (b, List.length sb) (a, List.length sa))
    |> List.map snd
  in
  List.iter
    (fun group ->
      (* sorted: hash order must not reach path_nodes (determinism even
         under randomized hashing) *)
      let already =
        List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) marked [])
      in
      if already <> [] then begin
        let bridge_fwd = path_nodes g ~from_set:already ~to_set:group in
        let bridge_bwd = path_nodes g ~from_set:group ~to_set:already in
        List.iter mark (by_asap (bridge_fwd @ bridge_bwd))
      end;
      List.iter mark (by_asap group))
    groups;
  (* 2. expand the neighbourhood: append the adjacent unordered node with
     minimum mobility; fall back to a global minimum when disconnected *)
  let nodes = Ddg.nodes g in
  let remaining () =
    List.filter (fun v -> not (Hashtbl.mem marked v)) nodes
  in
  let adjacent v =
    List.exists (fun (e : Ddg.edge) -> Hashtbl.mem marked e.dst)
      (Ddg.succs g v)
    || List.exists (fun (e : Ddg.edge) -> Hashtbl.mem marked e.src)
         (Ddg.preds g v)
  in
  let key v = (mobility v, asap v, v) in
  let rec expand () =
    match remaining () with
    | [] -> ()
    | rem ->
      let cands =
        match List.filter adjacent rem with [] -> rem | adj -> adj
      in
      let best =
        List.fold_left
          (fun acc v ->
            match acc with
            | None -> Some v
            | Some b -> if key v < key b then Some v else acc)
          None cands
      in
      (match best with Some v -> mark v | None -> ());
      expand ()
  in
  expand ();
  List.rev !ordered
