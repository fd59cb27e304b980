(** Strongly connected components of a DDG (Tarjan).

    In a well-formed dependence graph every cycle contains at least one
    loop-carried edge, so non-trivial SCCs are exactly the recurrences the
    paper talks about: they bound the initiation interval from below
    (RecMII) and make their loops "recurrence bound".

    The walk runs over the graph's dense view ({!Ddg.dense}): positions
    in increasing id order, out-edges in compressed rows, and the Tarjan
    state in arrays of |V| cells.  Roots are taken in increasing id
    order and edges in adjacency-list order, so the components and
    their order are those of the hash-table walk this replaced
    (test/scc_ref.ml).  [Mii] hands in the view it builds once per
    [Engine] call, the one the HRMS order reads as well. *)

(* The components of [d], as positions. *)
let components (d : Ddg.dense) =
  let n = Array.length d.ids in
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
    for k = d.first.(i) to d.first.(i + 1) - 1 do
      let j = d.succ.(k) in
      if index.(j) < 0 then begin
        strong j;
        lowlink.(i) <- Int.min lowlink.(i) lowlink.(j)
      end
      else if on_stack.(j) then lowlink.(i) <- Int.min lowlink.(i) index.(j)
    done;
    if lowlink.(i) = index.(i) then begin
      (* the component is the stack from [i] up, bottom first *)
      let rec pop acc =
        decr sp;
        let j = stack.(!sp) in
        on_stack.(j) <- false;
        if j = i then j :: acc else pop (j :: acc)
      in
      result := pop [] :: !result
    end
  in
  for i = 0 to n - 1 do
    if index.(i) < 0 then strong i
  done;
  !result

let to_ids (d : Ddg.dense) = List.map (List.map (fun i -> d.ids.(i)))

let sccs (g : Ddg.t) : int list list =
  let d = Ddg.dense g in
  to_ids d (components d)

let self_edge (d : Ddg.dense) i =
  let rec go k = k < d.first.(i + 1) && (d.succ.(k) = i || go (k + 1)) in
  go d.first.(i)

(* A component is a recurrence if it has more than one node or a self
   edge. *)
let recurrences_dense d =
  List.filter
    (function [] -> false | [ i ] -> self_edge d i | _ :: _ :: _ -> true)
    (components d)

let recurrences g =
  let d = Ddg.dense g in
  to_ids d (recurrences_dense d)

(** Whether the loop body contains any recurrence at all. *)
let has_recurrence g = recurrences_dense (Ddg.dense g) <> []
