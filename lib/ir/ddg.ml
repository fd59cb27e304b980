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

type t = {
  name : string;
  nodes : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable next_inv : int;
  mutable invariants : invariant list;
  mutable watcher : (int -> unit) option;
      (* fired with [e.src] on every edge insertion/removal; lets a
         scheduler keep incremental per-value state (the consumer set of
         [e.src] just changed) without scanning the graph.  Never copied
         nor serialized. *)
}

let create ?(name = "loop") () =
  { name; nodes = Hashtbl.create 64; next_id = 0; next_inv = 0;
    invariants = []; watcher = None }

let set_watcher t w = t.watcher <- w
let notify t src = match t.watcher with None -> () | Some f -> f src

let name t = t.name
let num_nodes t = Hashtbl.length t.nodes
let mem t id = Hashtbl.mem t.nodes id

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> Fmt.invalid_arg "Ddg.node: unknown node %d in %s" id t.name

let kind t id = (node t id).kind
let succs t id = (node t id).succs
let preds t id = (node t id).preds

let add_node t kind =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.nodes id { id; kind; succs = []; preds = [] };
  id

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
  Hashtbl.remove t.nodes id

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

(** Node ids in increasing order (deterministic iteration). *)
let nodes t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes []
  |> List.sort compare

let iter_nodes t f = List.iter (fun id -> f (node t id)) (nodes t)

let edges t =
  List.concat_map (fun id -> (node t id).succs) (nodes t)

let num_edges t = List.length (edges t)

(** True-dependence consumers of the value defined by [id]. *)
let consumers t id =
  List.filter_map
    (fun e -> if Dep.equal e.dep Dep.True then Some e else None)
    (succs t id)

(** The [True] in-edges of [id], i.e. the values it reads. *)
let operands t id =
  List.filter_map
    (fun e -> if Dep.equal e.dep Dep.True then Some e else None)
    (preds t id)

let count_kind t p =
  Hashtbl.fold (fun _ n acc -> if p n.kind then acc + 1 else acc) t.nodes 0

let num_memory_ops t = count_kind t Op.is_memory
let num_compute_ops t = count_kind t Op.is_compute

(** Deep copy; shares nothing with the original. *)
let copy t =
  let t' =
    { name = t.name; nodes = Hashtbl.create (Hashtbl.length t.nodes);
      next_id = t.next_id; next_inv = t.next_inv; invariants = [];
      watcher = None }
  in
  Hashtbl.iter
    (fun id n ->
      Hashtbl.replace t'.nodes id
        { id; kind = n.kind; succs = n.succs; preds = n.preds })
    t.nodes;
  t'.invariants <-
    List.map
      (fun inv ->
        { inv_id = inv.inv_id; inv_consumers = inv.inv_consumers })
      t.invariants;
  t'

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
      List.map
        (fun id ->
          let n = node t id in
          (id, n.kind, n.succs, n.preds))
        (nodes t);
    repr_invariants =
      List.map (fun inv -> (inv.inv_id, inv.inv_consumers)) t.invariants;
  }

let of_repr r =
  let t =
    { name = r.repr_name;
      nodes = Hashtbl.create (max 16 (List.length r.repr_nodes));
      next_id = r.repr_next_id; next_inv = r.repr_next_inv;
      invariants =
        List.map
          (fun (inv_id, inv_consumers) -> { inv_id; inv_consumers })
          r.repr_invariants;
      watcher = None }
  in
  List.iter
    (fun (id, kind, succs, preds) ->
      Hashtbl.replace t.nodes id { id; kind; succs; preds })
    r.repr_nodes;
  t

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
