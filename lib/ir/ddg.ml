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
  mutable others : int;
      (* non-[True] edges: those in [succs] count in the low 31 bits,
         those in [preds] above; one word, as every outcome keeps its
         graph *)
}

type invariant = {
  inv_id : int;
  mutable inv_consumers : int list;
}

(* Nodes live in [slots], an array indexed by node id and grown
   geometrically to cover any id it is given, so a lookup is a bounds
   check and a load.  An empty slot holds [absent], whose id never
   matches its index.  Memory is O(largest id): graphs from outside are
   checked with [compact] before one is built.  Invariant: ids are
   non-negative. *)
type t = {
  name : string;
  mutable slots : node array;
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

let absent =
  { id = -1; kind = Op.Fadd; succs = []; preds = []; others = 0 }

let is_true e = Dep.equal e.dep Dep.True

(* [others] units of a non-[True] out-edge and in-edge *)
let out_unit = 1
let in_unit = 1 lsl 31

let count_others succs preds =
  List.fold_left
    (fun n e -> if is_true e then n else n + in_unit)
    (List.fold_left (fun n e -> if is_true e then n else n + out_unit) 0 succs)
    preds

let true_out n = n.others land (in_unit - 1) = 0
let true_in n = n.others < in_unit

(* A node with its non-[True] counters taken from its lists. *)
let make_node id kind succs preds =
  { id; kind; succs; preds; others = count_others succs preds }

let create ?(name = "loop") () =
  { name; slots = Array.make 16 absent; count = 0; next_id = 0;
    next_inv = 0; invariants = []; watcher = None }

let set_watcher t w = t.watcher <- w
let notify t src = match t.watcher with None -> () | Some f -> f src

let name t = t.name
let num_nodes t = t.count

let mem t id =
  id >= 0 && id < Array.length t.slots && (Array.unsafe_get t.slots id).id = id

let unknown t id = Fmt.invalid_arg "Ddg.node: unknown node %d in %s" id t.name

let node t id =
  if id >= 0 && id < Array.length t.slots then begin
    let n = Array.unsafe_get t.slots id in
    if n.id = id then n else unknown t id
  end
  else unknown t id

let kind t id = (node t id).kind
let succs t id = (node t id).succs
let preds t id = (node t id).preds

(* Insert a node whose non-negative id is not present, growing [slots]
   geometrically when the id lies past its end. *)
let place t (n : node) =
  let len = Array.length t.slots in
  if n.id >= len then begin
    let d = Array.make (max (n.id + 1) (max 16 (2 * len))) absent in
    Array.blit t.slots 0 d 0 len;
    t.slots <- d
  end;
  t.slots.(n.id) <- n;
  t.count <- t.count + 1

let add_node t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  place t (make_node id kind [] []);
  id

let next_id t = t.next_id
let next_inv t = t.next_inv

let add_edge t ?(distance = 0) ~dep src dst =
  if distance < 0 then invalid_arg "Ddg.add_edge: negative distance";
  let e = { src; dst; dep; distance } in
  let ns = node t src and nd = node t dst in
  ns.succs <- e :: ns.succs;
  nd.preds <- e :: nd.preds;
  if not (is_true e) then begin
    ns.others <- ns.others + out_unit;
    nd.others <- nd.others + in_unit
  end;
  notify t src

let edge_equal a b =
  a.src = b.src && a.dst = b.dst && Dep.equal a.dep b.dep
  && a.distance = b.distance

(* Remove a single occurrence (parallel identical edges are legal, e.g.
   x*x uses the same value twice); [l] itself when there is none. *)
let remove_once p l =
  let rec go acc = function
    | [] -> l
    | x :: rest -> if p x then List.rev_append acc rest else go (x :: acc) rest
  in
  go [] l

let has_edge t e =
  mem t e.src && mem t e.dst
  && List.exists (edge_equal e) (node t e.src).succs

let remove_edge t e =
  let ns = node t e.src and nd = node t e.dst in
  let other = not (is_true e) in
  let succs = remove_once (edge_equal e) ns.succs in
  if succs != ns.succs then begin
    ns.succs <- succs;
    if other then ns.others <- ns.others - out_unit
  end;
  let preds = remove_once (edge_equal e) nd.preds in
  if preds != nd.preds then begin
    nd.preds <- preds;
    if other then nd.others <- nd.others - in_unit
  end;
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
  t.slots.(id) <- absent;
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

(* Fold over the nodes in decreasing id order. *)
let fold_desc f t acc =
  let acc = ref acc in
  for i = Array.length t.slots - 1 downto 0 do
    let n = Array.unsafe_get t.slots i in
    if n.id = i then acc := f n !acc
  done;
  !acc

(** Node ids in increasing order (deterministic iteration). *)
let nodes t = fold_desc (fun n acc -> n.id :: acc) t []

let iter_nodes t f = List.iter f (fold_desc List.cons t [])
let edges t = fold_desc (fun n acc -> n.succs @ acc) t []
let num_edges t = fold_desc (fun n acc -> acc + List.length n.succs) t 0

(* ------------------------------------------------------------------ *)
(* Dense view                                                          *)

type dense = {
  ids : int array;
  pos : int array;
  first : int array;
  succ : int array;
  dist : int array;
  lat : int array;
}

(* One walk of the node array numbers the nodes and sizes the rows; one
   walk of the out-edge lists fills them. *)
let dense ?latency t =
  let n = t.count in
  let ids = Array.make n 0 and first = Array.make (n + 1) 0 in
  let i = ref 0 in
  Array.iteri
    (fun id nd ->
      if nd.id = id then begin
        ids.(!i) <- id;
        first.(!i + 1) <- first.(!i) + List.length nd.succs;
        incr i
      end)
    t.slots;
  let pos = Array.make (if n = 0 then 0 else ids.(n - 1) + 1) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) ids;
  let m = first.(n) in
  let succ = Array.make m 0 and dist = Array.make m 0 in
  let lat = Array.make m 0 in
  Array.iteri
    (fun i id ->
      List.iteri
        (fun j e ->
          let k = first.(i) + j in
          if e.dst < 0 || e.dst >= Array.length pos || pos.(e.dst) < 0 then
            unknown t e.dst;
          succ.(k) <- pos.(e.dst);
          dist.(k) <- e.distance;
          match latency with Some f -> lat.(k) <- f e | None -> ())
        t.slots.(id).succs)
    ids;
  { ids; pos; first; succ; dist; lat }

(** True-dependence consumers of the value defined by [id]: the
    out-edge list itself, in O(1), when it holds no other edge (the
    common case). *)
let consumers t id =
  let n = node t id in
  if true_out n then n.succs else List.filter is_true n.succs

(** The [True] in-edges of [id], i.e. the values it reads. *)
let operands t id =
  let n = node t id in
  if true_in n then n.preds else List.filter is_true n.preds

let count_kind t p =
  fold_desc (fun n acc -> if p n.kind then acc + 1 else acc) t 0

let num_memory_ops t = count_kind t Op.is_memory
let num_compute_ops t = count_kind t Op.is_compute

(* A graph of [nodes]: the array reaches the highest id (no slack).
   Raises on a repeated or negative id. *)
let of_nodes ~name ~next_id ~next_inv ~invariants nodes =
  let hi = List.fold_left (fun hi n -> max hi n.id) (-1) nodes in
  let t =
    { name; slots = Array.make (hi + 1) absent; count = 0; next_id; next_inv;
      invariants; watcher = None }
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
         { id = n.id; kind = n.kind; succs = n.succs; preds = n.preds;
           others = n.others }
         :: acc)
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

(** Whether the ids are compact: every node id lies in
    [\[0, repr_next_id)], and the id counter is at most [2·|V| + 64].
    A graph's array is sized by its largest id, as are the scheduler's
    per-node tables, so graphs from outside (wire requests, [.repro]
    files) must pass this before one is built. *)
let compact r =
  r.repr_next_id <= (2 * List.length r.repr_nodes) + 64
  && List.for_all
       (fun (id, _, _, _) -> id >= 0 && id < r.repr_next_id)
       r.repr_nodes

let of_repr r =
  of_nodes ~name:r.repr_name ~next_id:r.repr_next_id
    ~next_inv:r.repr_next_inv
    ~invariants:
      (List.map
         (fun (inv_id, inv_consumers) -> { inv_id; inv_consumers })
         r.repr_invariants)
    (List.map
       (fun (id, kind, succs, preds) -> make_node id kind succs preds)
       r.repr_nodes)

let pp ppf t =
  Fmt.pf ppf "@[<v>ddg %s (%d nodes)@," t.name (num_nodes t);
  iter_nodes t (fun n ->
      Fmt.pf ppf "  %d:%a ->%a@," n.id Op.pp_kind n.kind
        Fmt.(list ~sep:sp (fun ppf e ->
            Fmt.pf ppf " %d(%a,d%d)" e.dst Dep.pp e.dep e.distance))
        n.succs);
  Fmt.pf ppf "@]"

(* Occurrences of [e] in [l], counted without allocating. *)
let rec count_edge e n = function
  | [] -> n
  | x :: l -> count_edge e (if edge_equal e x then n + 1 else n) l

(** Structural well-formedness: every edge endpoint exists, and each
    edge appears as often in its target's in-edges as in its source's
    out-edges; distances are non-negative; node and invariant ids lie
    below the id counters, so fresh ids never collide; the non-[True]
    edge counters match the lists. *)
let validate t =
  let ok = ref true and outs = ref 0 and ins = ref 0 in
  fold_desc
    (fun n () ->
      if n.id < 0 || n.id >= t.next_id then ok := false;
      if n.others <> count_others n.succs n.preds then ok := false;
      ins := !ins + List.length n.preds;
      List.iter
        (fun e ->
          incr outs;
          if
            e.src <> n.id || (not (mem t e.dst)) || e.distance < 0
            || count_edge e 0 (node t e.dst).preds <> count_edge e 0 n.succs
          then ok := false)
        n.succs)
    t ();
  (* each out-edge occurs as often among its target's in-edges as
     among its source's out-edges; equal totals then leave no in-edge
     outside those counts, so both sides hold the same multiset *)
  if !outs <> !ins then ok := false;
  List.iter
    (fun inv ->
      if inv.inv_id < 0 || inv.inv_id >= t.next_inv then ok := false;
      List.iter (fun c -> if not (mem t c) then ok := false)
        inv.inv_consumers)
    t.invariants;
  !ok
