(** HRMS-style node ordering [23]: recurrences first, hardest first,
    each after the paths joining it to the ordered region, then a
    neighbourhood expansion by least mobility (see order.mli).

    Everything runs on the graph's dense view ({!Hcrf_ir.Ddg.dense},
    with latencies): index order is id order, so ties broken on the
    index are ties broken on the id.  The expansion ranks every node
    once by (mobility, ASAP, index) and keeps the unordered nodes
    adjacent to the ordered region in a heap by rank; when the heap is
    empty, a cursor over the ranking gives the first unordered node.
    Each step thus appends the minimum of (not adjacent, mobility,
    ASAP, index), as the scan it replaced did, in O(log n). *)

open Hcrf_ir

(* ASAP in a topological order of the distance-0 subgraph, then ALAP in
   the reverse order against the ASAP horizon. *)
let dense_asap_alap (d : Ddg.dense) =
  let n = Array.length d.ids in
  let asap = Array.make n 0 and alap = Array.make n 0 in
  let indeg = Array.make n 0 in
  Array.iteri
    (fun k j -> if d.dist.(k) = 0 then indeg.(j) <- indeg.(j) + 1)
    d.succ;
  let topo = Array.make n 0 and len = ref 0 in
  Array.iteri (fun i deg -> if deg = 0 then (topo.(!len) <- i; incr len)) indeg;
  let head = ref 0 in
  while !head < !len do
    let i = topo.(!head) in
    incr head;
    for k = d.first.(i) to d.first.(i + 1) - 1 do
      if d.dist.(k) = 0 then begin
        let j = d.succ.(k) in
        asap.(j) <- Int.max asap.(j) (asap.(i) + d.lat.(k));
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then (topo.(!len) <- j; incr len)
      end
    done
  done;
  if !len < n then invalid_arg "Order: cycle of distance-0 edges";
  let horizon = Array.fold_left Int.max 0 asap in
  for t = n - 1 downto 0 do
    let i = topo.(t) in
    let a = ref horizon in
    for k = d.first.(i) to d.first.(i + 1) - 1 do
      if d.dist.(k) = 0 then a := Int.min !a (alap.(d.succ.(k)) - d.lat.(k))
    done;
    alap.(i) <- !a
  done;
  (asap, alap)

let asap_alap (lat : Latency.t) (g : Ddg.t) =
  let d = (Mii.analyse lat g).view in
  let asap, alap = dense_asap_alap d in
  let at a id =
    if id >= 0 && id < Array.length d.pos && d.pos.(id) >= 0 then
      a.(d.pos.(id))
    else 0
  in
  (at asap, at alap)

(* Sort indices by ASAP, then index. *)
let sort_by_asap asap =
  List.sort (fun a b ->
      match Int.compare asap.(a) asap.(b) with 0 -> Int.compare a b | c -> c)

let topological (a : Mii.analysis) =
  let d = a.view in
  let asap, _ = dense_asap_alap d in
  List.map
    (fun i -> d.ids.(i))
    (sort_by_asap asap (List.init (Array.length d.ids) Fun.id))

(* Indices on a distance-0 path from set [src] to set [dst], outside
   both sets, in increasing order. *)
let path_nodes g (d : Ddg.dense) ~src ~dst =
  let n = Array.length d.ids in
  let fwd = Array.make n false and bwd = Array.make n false in
  let rec down i =
    if not fwd.(i) then begin
      fwd.(i) <- true;
      for k = d.first.(i) to d.first.(i + 1) - 1 do
        if d.dist.(k) = 0 then down d.succ.(k)
      done
    end
  in
  let rec up i =
    if not bwd.(i) then begin
      bwd.(i) <- true;
      List.iter
        (fun (e : Ddg.edge) -> if e.distance = 0 then up d.pos.(e.src))
        (Ddg.preds g d.ids.(i))
    end
  in
  for i = 0 to n - 1 do
    if src.(i) then down i;
    if dst.(i) then up i
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if fwd.(i) && bwd.(i) && (not src.(i)) && not dst.(i) then acc := i :: !acc
  done;
  !acc

let hrms (a : Mii.analysis) =
  let g = a.graph and d = a.view in
  let n = Array.length d.ids in
  let asap, alap = dense_asap_alap d in
  let mobility = Array.init n (fun i -> alap.(i) - asap.(i)) in
  (* [by_rank]: the indices by (mobility, ASAP, index) *)
  let by_rank = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare mobility.(a) mobility.(b) with
      | 0 -> (
        match Int.compare asap.(a) asap.(b) with
        | 0 -> Int.compare a b
        | c -> c)
      | c -> c)
    by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  (* [adjacent.(i)]: some neighbour of [i] is already ordered; the
     adjacent unordered nodes wait in [frontier] by rank *)
  let marked = Array.make n false and adjacent = Array.make n false in
  let frontier = Pqueue.create () in
  let touch j =
    if not adjacent.(j) then begin
      adjacent.(j) <- true;
      if not marked.(j) then
        Pqueue.push frontier ~priority:(Float.of_int rank.(j)) j
    end
  in
  let ordered = ref [] and left = ref n in
  let mark i =
    if not marked.(i) then begin
      marked.(i) <- true;
      Pqueue.remove frontier i;
      decr left;
      ordered := d.ids.(i) :: !ordered;
      for k = d.first.(i) to d.first.(i + 1) - 1 do
        touch d.succ.(k)
      done;
      List.iter
        (fun (e : Ddg.edge) -> touch d.pos.(e.src))
        (Ddg.preds g d.ids.(i))
    end
  in
  (* 1. recurrences, hardest first, with connecting path nodes *)
  let groups =
    List.map (fun (r : Mii.recurrence) -> (r.rmii, r.scc)) a.recs
    |> List.sort (fun (a, sa) (b, sb) ->
           compare (b, List.length sb) (a, List.length sa))
    |> List.map (fun (_, scc) -> List.map (fun v -> d.pos.(v)) scc)
  in
  List.iter
    (fun group ->
      if !left < n then begin
        let in_group = Array.make n false in
        List.iter (fun i -> in_group.(i) <- true) group;
        let bridge_fwd = path_nodes g d ~src:marked ~dst:in_group in
        let bridge_bwd = path_nodes g d ~src:in_group ~dst:marked in
        List.iter mark (sort_by_asap asap (bridge_fwd @ bridge_bwd))
      end;
      List.iter mark (sort_by_asap asap group))
    groups;
  (* 2. expand the neighbourhood: append the adjacent node of least
     rank, or the first unordered node of the ranking when none is
     adjacent *)
  let cursor = ref 0 in
  while !left > 0 do
    match Pqueue.pop frontier with
    | Some i -> mark i
    | None ->
      while marked.(by_rank.(!cursor)) do incr cursor done;
      mark by_rank.(!cursor)
  done;
  List.rev !ordered

let compute ?(lat : Latency.t option) config (g : Ddg.t) =
  let lat = match lat with Some l -> l | None -> Latency.make config in
  hrms (Mii.analyse lat g)
