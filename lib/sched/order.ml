(** HRMS-style node ordering.

    HRMS [23] pre-orders nodes so that (a) recurrences are dealt with
    first, hardest first, and (b) when a node is scheduled, the neighbours
    already in the partial schedule lie (mostly) on one side of it, which
    keeps lifetimes short.  We implement that intent: recurrence SCCs in
    decreasing RecMII order, each preceded by the nodes on dependence
    paths connecting it to the already-ordered region, followed by a
    neighbourhood expansion that always appends a node adjacent to the
    ordered region with minimum mobility (ALAP - ASAP slack).

    Everything runs on dense indices: node [i] is the [i]-th id in
    increasing order, so index order is id order and ties broken on the
    index are ties broken on the id. *)

open Hcrf_ir

type view = {
  ids : int array;  (* increasing *)
  isucc : (int * int) list array;  (* distance-0 out-edges: dst, latency *)
  ipred : (int * int) list array;  (* distance-0 in-edges: src, latency *)
  nbrs : int list array;  (* both endpoints of every edge, any distance *)
}

let index_of ids id =
  let rec go lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) lsr 1 in
      let m = ids.(mid) in
      if m = id then mid else if m < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

(* Every edge sits in its source's succs and its destination's preds, so
   the succ lists alone describe the graph. *)
let view (lat : Latency.t) (g : Ddg.t) =
  let ids = Array.of_list (Ddg.nodes g) in
  let n = Array.length ids in
  let isucc = Array.make n [] and ipred = Array.make n [] in
  let nbrs = Array.make n [] in
  Array.iteri
    (fun i v ->
      List.iter
        (fun (e : Ddg.edge) ->
          let j = index_of ids e.dst in
          nbrs.(i) <- j :: nbrs.(i);
          nbrs.(j) <- i :: nbrs.(j);
          if e.distance = 0 then begin
            let l = Latency.of_edge lat g e in
            isucc.(i) <- (j, l) :: isucc.(i);
            ipred.(j) <- (i, l) :: ipred.(j)
          end)
        (Ddg.succs g v))
    ids;
  { ids; isucc; ipred; nbrs }

(* ASAP in a topological order of the distance-0 subgraph, then ALAP in
   the reverse order against the ASAP horizon. *)
let dense_asap_alap v =
  let n = Array.length v.ids in
  let asap = Array.make n 0 and alap = Array.make n 0 in
  let indeg = Array.map List.length v.ipred in
  let topo = Array.make n 0 and len = ref 0 in
  Array.iteri (fun i d -> if d = 0 then (topo.(!len) <- i; incr len)) indeg;
  let head = ref 0 in
  while !head < !len do
    let i = topo.(!head) in
    incr head;
    List.iter
      (fun (j, l) ->
        asap.(j) <- max asap.(j) (asap.(i) + l);
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then (topo.(!len) <- j; incr len))
      v.isucc.(i)
  done;
  if !len < n then invalid_arg "Order: cycle of distance-0 edges";
  let horizon = Array.fold_left max 0 asap in
  for k = n - 1 downto 0 do
    let i = topo.(k) in
    alap.(i) <-
      List.fold_left (fun acc (j, l) -> min acc (alap.(j) - l)) horizon
        v.isucc.(i)
  done;
  (asap, alap)

let asap_alap (lat : Latency.t) (g : Ddg.t) =
  let v = view lat g in
  let asap, alap = dense_asap_alap v in
  let at a id = match index_of v.ids id with i -> a.(i) | exception Not_found -> 0 in
  (at asap, at alap)

(* Indices reachable from the [seeds] over [step]. *)
let reach n step seeds =
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun (j, _) -> dfs j) step.(i)
    end
  in
  List.iter dfs seeds;
  seen

(* Indices on a distance-0 path from set [src] to set [dst], outside
   both sets, in increasing order. *)
let path_nodes v ~src ~dst =
  let n = Array.length v.ids in
  let members s = List.filter (fun i -> s.(i)) (List.init n Fun.id) in
  let fwd = reach n v.isucc (members src)
  and bwd = reach n v.ipred (members dst) in
  List.filter
    (fun i -> fwd.(i) && bwd.(i) && (not src.(i)) && not dst.(i))
    (List.init n Fun.id)

(** Compute the scheduling priority order.  Returns node ids, highest
    priority first. *)
let compute ?(lat : Latency.t option) ?recs config (g : Ddg.t) : int list =
  let lat = match lat with Some l -> l | None -> Latency.make config in
  let recs = match recs with Some r -> r | None -> Mii.recurrences lat g in
  let v = view lat g in
  let n = Array.length v.ids in
  let asap, alap = dense_asap_alap v in
  let mobility = Array.init n (fun i -> alap.(i) - asap.(i)) in
  let by_asap =
    List.sort (fun a b ->
        let c = compare asap.(a) asap.(b) in
        if c <> 0 then c else compare a b)
  in
  (* [adjacent.(i)]: some neighbour of [i] is already ordered *)
  let marked = Array.make n false and adjacent = Array.make n false in
  let ordered = ref [] and left = ref n in
  let mark i =
    if not marked.(i) then begin
      marked.(i) <- true;
      decr left;
      ordered := v.ids.(i) :: !ordered;
      List.iter (fun j -> adjacent.(j) <- true) v.nbrs.(i)
    end
  in
  (* 1. recurrences, hardest first, with connecting path nodes *)
  let groups =
    List.map (fun (r : Mii.recurrence) -> (r.rmii, r.scc)) recs
    |> List.sort (fun (a, sa) (b, sb) ->
           compare (b, List.length sb) (a, List.length sa))
    |> List.map (fun (_, scc) -> List.map (index_of v.ids) scc)
  in
  List.iter
    (fun group ->
      if !left < n then begin
        let in_group = Array.make n false in
        List.iter (fun i -> in_group.(i) <- true) group;
        let bridge_fwd = path_nodes v ~src:marked ~dst:in_group in
        let bridge_bwd = path_nodes v ~src:in_group ~dst:marked in
        List.iter mark (by_asap (bridge_fwd @ bridge_bwd))
      end;
      List.iter mark (by_asap group))
    groups;
  (* 2. expand the neighbourhood: append the unordered node minimising
     (not adjacent, mobility, asap, id), i.e. the adjacent node of least
     mobility, or the global minimum when none is adjacent *)
  let better i b =
    if adjacent.(i) <> adjacent.(b) then adjacent.(i)
    else if mobility.(i) <> mobility.(b) then mobility.(i) < mobility.(b)
    else asap.(i) < asap.(b)
  in
  while !left > 0 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not marked.(i)) && (!best < 0 || better i !best) then best := i
    done;
    mark !best
  done;
  List.rev !ordered
