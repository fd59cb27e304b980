(** Strongly connected components of a DDG (Tarjan).

    In a well-formed dependence graph every cycle contains at least one
    loop-carried edge, so non-trivial SCCs are exactly the recurrences the
    paper talks about: they bound the initiation interval from below
    (RecMII) and make their loops "recurrence bound".

    The walk runs over positions: node [i] is the [i]-th id in increasing
    order, each out-edge list is turned into a position array once
    (binary search over the sorted ids), and the Tarjan state lives in
    arrays of |V| cells, so memory is O(|V| + |E|) whatever the ids are.
    Roots are taken in increasing id order and edges in adjacency-list
    order, so the components and their order are those of the
    hash-table walk this replaced (test/scc_ref.ml). *)

let position ids id =
  let rec go lo hi =
    if lo >= hi then Fmt.invalid_arg "Scc: unknown node %d" id
    else
      let mid = (lo + hi) lsr 1 in
      let m = ids.(mid) in
      if m = id then mid else if m < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let sccs (g : Ddg.t) : int list list =
  let ids = Array.of_list (Ddg.nodes g) in
  let n = Array.length ids in
  let succ =
    Array.map
      (fun v ->
        Array.of_list
          (List.map (fun (e : Ddg.edge) -> position ids e.dst) (Ddg.succs g v)))
      ids
  in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let counter = ref 0 in
  let result = ref [] in
  let rec strong i =
    index.(i) <- !counter;
    lowlink.(i) <- !counter;
    incr counter;
    stack.(!sp) <- i;
    incr sp;
    on_stack.(i) <- true;
    Array.iter
      (fun j ->
        if index.(j) < 0 then begin
          strong j;
          lowlink.(i) <- min lowlink.(i) lowlink.(j)
        end
        else if on_stack.(j) then lowlink.(i) <- min lowlink.(i) index.(j))
      succ.(i);
    if lowlink.(i) = index.(i) then begin
      (* the component is the stack from [i] up, bottom first *)
      let rec pop acc =
        decr sp;
        let j = stack.(!sp) in
        on_stack.(j) <- false;
        if j = i then ids.(j) :: acc else pop (ids.(j) :: acc)
      in
      result := pop [] :: !result
    end
  in
  for i = 0 to n - 1 do
    if index.(i) < 0 then strong i
  done;
  !result

(** A component is a recurrence if it has more than one node or a self
    edge. *)
let is_recurrence (g : Ddg.t) = function
  | [] -> false
  | [ v ] -> List.exists (fun (e : Ddg.edge) -> e.dst = v) (Ddg.succs g v)
  | _ :: _ :: _ -> true

let recurrences g = List.filter (is_recurrence g) (sccs g)

(** Whether the loop body contains any recurrence at all. *)
let has_recurrence g = recurrences g <> []
