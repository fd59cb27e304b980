(** Priority list of the iterative scheduler.

    Lower priority value = scheduled earlier.  Original nodes carry their
    HRMS ordering index; nodes inserted during scheduling (communication,
    spill) are given fractional priorities adjacent to the operation they
    serve, and ejected nodes are re-queued with their original priority
    (§5.1).

    An indexed binary min-heap over (priority, node): the priorities sit
    unboxed in a float array beside the nodes, and a node -> heap
    position array makes [mem] and [remove] direct.  The contract is the
    engine's discipline: a node is queued at most once and keeps one
    priority, so a re-push with the same priority is a no-op and one
    with another priority raises.  [pop] returns the lexicographic
    minimum of (priority, node), as the lazy-deletion heap it replaces
    did (test/pqueue_ref.ml; QCheck compares the two). *)

type t = {
  mutable prio : float array;  (* heap position -> priority *)
  mutable node : int array;    (* heap position -> node *)
  mutable pos : int array;     (* node -> heap position, -1 = absent *)
  mutable n : int;             (* live prefix of [prio] and [node] *)
}

let create () =
  { prio = Array.make 64 0.; node = Array.make 64 0; pos = Array.make 64 (-1);
    n = 0 }

let is_empty t = t.n = 0
let size t = t.n
let mem t v = v >= 0 && v < Array.length t.pos && t.pos.(v) >= 0

(* Heap cell [i] orders before a (priority, node) pair. *)
let lt t i p v =
  let pi = t.prio.(i) in
  pi < p || (pi = p && t.node.(i) < v)

let set t i p v =
  t.prio.(i) <- p;
  t.node.(i) <- v;
  t.pos.(v) <- i

(* Put (p, v) at hole [i], moving it towards the root. *)
let rec sift_up t i p v =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t parent p v then set t i p v
    else begin
      set t i t.prio.(parent) t.node.(parent);
      sift_up t parent p v
    end
  end
  else set t i p v

(* Put (p, v) at hole [i], moving it towards the leaves. *)
let rec sift_down t i p v =
  let l = (2 * i) + 1 in
  if l >= t.n then set t i p v
  else begin
    let c = if l + 1 < t.n && lt t (l + 1) t.prio.(l) t.node.(l) then l + 1 else l in
    if lt t c p v then begin
      set t i t.prio.(c) t.node.(c);
      sift_down t c p v
    end
    else set t i p v
  end

let grow_heap t =
  let cap = 2 * Array.length t.node in
  let prio = Array.make cap 0. and node = Array.make cap 0 in
  Array.blit t.prio 0 prio 0 t.n;
  Array.blit t.node 0 node 0 t.n;
  t.prio <- prio;
  t.node <- node

let grow_pos t v =
  let len = Array.length t.pos in
  let pos = Array.make (max (2 * len) (v + 1)) (-1) in
  Array.blit t.pos 0 pos 0 len;
  t.pos <- pos

let push t ~priority v =
  if v < 0 then Fmt.invalid_arg "Pqueue.push: negative node %d" v;
  if v >= Array.length t.pos then grow_pos t v;
  let i = t.pos.(v) in
  if i >= 0 then begin
    if t.prio.(i) <> priority then
      Fmt.invalid_arg "Pqueue.push: node %d already queued at %g, not %g" v
        t.prio.(i) priority
  end
  else begin
    if t.n = Array.length t.node then grow_heap t;
    t.n <- t.n + 1;
    sift_up t (t.n - 1) priority v
  end

(* Drop heap cell [i]: the last cell fills the hole and moves to its
   place. *)
let delete t i =
  t.pos.(t.node.(i)) <- -1;
  t.n <- t.n - 1;
  if i < t.n then begin
    let p = t.prio.(t.n) and v = t.node.(t.n) in
    if i > 0 && not (lt t ((i - 1) / 2) p v) then sift_up t i p v
    else sift_down t i p v
  end

let pop t =
  if t.n = 0 then None
  else begin
    let v = t.node.(0) in
    delete t 0;
    Some v
  end

let remove t v = if mem t v then delete t t.pos.(v)
