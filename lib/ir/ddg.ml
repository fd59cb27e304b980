(** Mutable data-dependence graphs for innermost loops.

    Nodes are operations; edges carry a dependence kind and an iteration
    distance (0 for intra-iteration dependences, [>= 1] for loop-carried
    ones).  The graph is mutable because the schedulers insert and remove
    communication and spill operations while building a schedule.

    Values are identified with their defining node: the value produced by
    node [u] is consumed by the targets of the [True] out-edges of [u].
    Loop invariants (values defined before the loop and read-only inside it)
    are kept in a side table since they have no defining node. *)

type edge = {
  src : int;
  dst : int;
  dep : Dep.t;
  distance : int;
}

type node = {
  id : int;
  kind : Op.kind;
  mutable succs : edge list; (* out-edges *)
  mutable preds : edge list; (* in-edges *)
}

type invariant = {
  inv_id : int;
  mutable inv_consumers : int list;
}

module Int_map = Map.Make (Int)

(* Nodes live in [dense], an array indexed by node id, so a lookup is a
   bounds check and a load.  An empty slot holds [absent], whose id never
   matches its index.  Ids outside the compactness bound (the wire's
   [2·|V| + 64]) go to the small [sparse] map instead, so memory stays
   O(|V|) whatever ids an outside graph carries.  Invariant: ids are
   non-negative, and every key of [sparse] is at least
   [Array.length dense]. *)
type t = {
  name : string;
  mutable dense : node array;
  mutable sparse : node Int_map.t;
  mutable count : int;
  mutable next_id : int;
  mutable next_inv : int;
  mutable invariants : invariant list;
  mutable watcher : (int -> unit) option;
      (* fired with [e.src] on every edge insertion/removal; lets a
         scheduler keep incremental per-value state (the consumer set of
         [e.src] just changed) without scanning the graph.  Never copied
         nor serialized. *)
}

let absent = { id = -1; kind = Op.Fadd; succs = []; preds = [] }

(* Ids below this bound may live in [dense] for a graph of [n] nodes. *)
let dense_bound n = (2 * n) + 64

let create ?(name = "loop") () =
  { name; dense = Array.make 16 absent; sparse = Int_map.empty; count = 0;
    next_id = 0; next_inv = 0; invariants = []; watcher = None }

let set_watcher t w = t.watcher <- w
let notify t src = match t.watcher with None -> () | Some f -> f src

let name t = t.name
let num_nodes t = t.count

let mem t id =
  if id >= 0 && id < Array.length t.dense then
    (Array.unsafe_get t.dense id).id = id
  else Int_map.mem id t.sparse

let unknown t id = Fmt.invalid_arg "Ddg.node: unknown node %d in %s" id t.name

let node t id =
  if id >= 0 && id < Array.length t.dense then begin
    let n = Array.unsafe_get t.dense id in
    if n.id = id then n else unknown t id
  end
  else
    match Int_map.find_opt id t.sparse with
    | Some n -> n
    | None -> unknown t id

let kind t id = (node t id).kind
let succs t id = (node t id).succs
let preds t id = (node t id).preds

(* Grow [dense] geometrically, but never past the compactness bound of
   the graph about to hold [id]; sparse entries the new array covers
   move into it. *)
let grow t id =
  let len = Array.length t.dense in
  let cap = max (id + 1) (min (max 16 (2 * len)) (dense_bound (t.count + 1))) in
  let d = Array.make cap absent in
  Array.blit t.dense 0 d 0 len;
  let moved, kept = Int_map.partition (fun k _ -> k < cap) t.sparse in
  Int_map.iter (fun k n -> d.(k) <- n) moved;
  t.dense <- d;
  t.sparse <- kept

(* Insert a node whose non-negative id is not present. *)
let place t (n : node) =
  let id = n.id in
  if id < Array.length t.dense then t.dense.(id) <- n
  else if id < dense_bound (t.count + 1) then begin
    grow t id;
    t.dense.(id) <- n
  end
  else t.sparse <- Int_map.add id n t.sparse;
  t.count <- t.count + 1

let add_node t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  place t { id; kind; succs = []; preds = [] };
  id

let next_id t = t.next_id
let next_inv t = t.next_inv

let add_edge t ?(distance = 0) ~dep src dst =
  if distance < 0 then invalid_arg "Ddg.add_edge: negative distance";
  let e = { src; dst; dep; distance } in
  let ns = node t src and nd = node t dst in
  ns.succs <- e :: ns.succs;
  nd.preds <- e :: nd.preds;
  notify t src

let edge_equal a b =
  a.src = b.src && a.dst = b.dst && Dep.equal a.dep b.dep
  && a.distance = b.distance

(* Remove a single occurrence (parallel identical edges are legal, e.g.
   x*x uses the same value twice). *)
let remove_once p l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest -> if p x then List.rev_append acc rest else go (x :: acc) rest
  in
  go [] l

let has_edge t e =
  mem t e.src && mem t e.dst
  && List.exists (edge_equal e) (node t e.src).succs

let remove_edge t e =
  let ns = node t e.src and nd = node t e.dst in
  ns.succs <- remove_once (edge_equal e) ns.succs;
  nd.preds <- remove_once (edge_equal e) nd.preds;
  notify t e.src

(** Remove a node and every edge touching it.  Invariant consumer lists are
    updated as well. *)
let remove_node t id =
  let n = node t id in
  List.iter (fun e -> remove_edge t e) n.succs;
  List.iter (fun e -> remove_edge t e) n.preds;
  List.iter
    (fun inv ->
      inv.inv_consumers <- List.filter (fun c -> c <> id) inv.inv_consumers)
    t.invariants;
  if id < Array.length t.dense then t.dense.(id) <- absent
  else t.sparse <- Int_map.remove id t.sparse;
  t.count <- t.count - 1

let add_invariant t ~consumers =
  let inv_id = t.next_inv in
  t.next_inv <- inv_id + 1;
  t.invariants <- { inv_id; inv_consumers = consumers } :: t.invariants;
  inv_id

let invariants t = t.invariants

let add_invariant_consumer t ~inv_id id =
  match List.find_opt (fun i -> i.inv_id = inv_id) t.invariants with
  | None -> Fmt.invalid_arg "Ddg.add_invariant_consumer: unknown %d" inv_id
  | Some inv -> inv.inv_consumers <- id :: inv.inv_consumers

(* Fold over the nodes in decreasing id order: the sparse ids above the
   dense range, then the dense slots. *)
let fold_desc f t acc =
  let acc =
    ref (Seq.fold_left (fun acc (_, n) -> f n acc) acc
           (Int_map.to_rev_seq t.sparse))
  in
  for i = Array.length t.dense - 1 downto 0 do
    let n = Array.unsafe_get t.dense i in
    if n.id = i then acc := f n !acc
  done;
  !acc

(** Node ids in increasing order (deterministic iteration). *)
let nodes t = fold_desc (fun n acc -> n.id :: acc) t []

let iter_nodes t f = List.iter f (fold_desc List.cons t [])
let edges t = fold_desc (fun n acc -> n.succs @ acc) t []
let num_edges t = fold_desc (fun n acc -> acc + List.length n.succs) t 0

let is_true e = Dep.equal e.dep Dep.True

(* The [True] edges of [l]: [l] itself, shared, when every edge is
   [True] (the common case), so the walk allocates nothing. *)
let true_edges l =
  if List.for_all is_true l then l else List.filter is_true l

(** True-dependence consumers of the value defined by [id]. *)
let consumers t id = true_edges (succs t id)

(** The [True] in-edges of [id], i.e. the values it reads. *)
let operands t id = true_edges (preds t id)

let count_kind t p =
  fold_desc (fun n acc -> if p n.kind then acc + 1 else acc) t 0

let num_memory_ops t = count_kind t Op.is_memory
let num_compute_ops t = count_kind t Op.is_compute

(* A graph of [nodes]: the array reaches the highest id below the
   compactness bound (no slack), the other ids go to the overflow map.
   Raises on a repeated or negative id. *)
let of_nodes ~name ~next_id ~next_inv ~invariants nodes =
  let bound = dense_bound (List.length nodes) in
  let hi =
    List.fold_left
      (fun hi n -> if n.id < bound then max hi n.id else hi)
      (-1) nodes
  in
  let t =
    { name; dense = Array.make (hi + 1) absent; sparse = Int_map.empty;
      count = 0; next_id; next_inv; invariants; watcher = None }
  in
  List.iter
    (fun n ->
      if n.id < 0 then Fmt.invalid_arg "Ddg.of_repr: negative node id %d" n.id;
      if mem t n.id then
        Fmt.invalid_arg "Ddg.of_repr: node %d listed twice" n.id;
      place t n)
    nodes;
  t

(** Deep copy; shares nothing with the original. *)
let copy t =
  of_nodes ~name:t.name ~next_id:t.next_id ~next_inv:t.next_inv
    ~invariants:
      (List.map
         (fun inv ->
           { inv_id = inv.inv_id; inv_consumers = inv.inv_consumers })
         t.invariants)
    (fold_desc
       (fun n acc ->
         { id = n.id; kind = n.kind; succs = n.succs; preds = n.preds } :: acc)
       t [])

(* ------------------------------------------------------------------ *)
(* Immutable representation for serialization (schedule caching)       *)

type repr = {
  repr_name : string;
  repr_next_id : int;
  repr_next_inv : int;
  repr_nodes : (int * Op.kind * edge list * edge list) list;
      (* id, kind, succs, preds — adjacency order preserved *)
  repr_invariants : (int * int list) list;
}

let to_repr t =
  {
    repr_name = t.name;
    repr_next_id = t.next_id;
    repr_next_inv = t.next_inv;
    repr_nodes =
      fold_desc (fun n acc -> (n.id, n.kind, n.succs, n.preds) :: acc) t [];
    repr_invariants =
      List.map (fun inv -> (inv.inv_id, inv.inv_consumers)) t.invariants;
  }

let of_repr r =
  of_nodes ~name:r.repr_name ~next_id:r.repr_next_id
    ~next_inv:r.repr_next_inv
    ~invariants:
      (List.map
         (fun (inv_id, inv_consumers) -> { inv_id; inv_consumers })
         r.repr_invariants)
    (List.map
       (fun (id, kind, succs, preds) -> { id; kind; succs; preds })
       r.repr_nodes)

let pp ppf t =
  Fmt.pf ppf "@[<v>ddg %s (%d nodes)@," t.name (num_nodes t);
  iter_nodes t (fun n ->
      Fmt.pf ppf "  %d:%a ->%a@," n.id Op.pp_kind n.kind
        Fmt.(list ~sep:sp (fun ppf e ->
            Fmt.pf ppf " %d(%a,d%d)" e.dst Dep.pp e.dep e.distance))
        n.succs);
  Fmt.pf ppf "@]"

(** Structural well-formedness: every edge endpoint exists and appears in
    both adjacency lists; distances are non-negative; node and invariant
    ids lie below the id counters, so fresh ids never collide. *)
let validate t =
  let ok = ref true in
  iter_nodes t (fun n ->
      if n.id < 0 || n.id >= t.next_id then ok := false;
      List.iter
        (fun e ->
          if e.src <> n.id || not (mem t e.dst) || e.distance < 0 then
            ok := false
          else
            let back = (node t e.dst).preds in
            if not (List.exists (edge_equal e) back) then ok := false)
        n.succs;
      List.iter
        (fun e ->
          if e.dst <> n.id || not (mem t e.src) then ok := false
          else
            let fwd = (node t e.src).succs in
            if not (List.exists (edge_equal e) fwd) then ok := false)
        n.preds);
  List.iter
    (fun inv ->
      if inv.inv_id < 0 || inv.inv_id >= t.next_inv then ok := false;
      List.iter (fun c -> if not (mem t c) then ok := false)
        inv.inv_consumers)
    t.invariants;
  !ok
