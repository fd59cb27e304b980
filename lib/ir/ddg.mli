(** Mutable data-dependence graphs for innermost loops.

    Nodes are operations; edges carry a dependence kind and an iteration
    distance (0 for intra-iteration dependences, [>= 1] for loop-carried
    ones).  The graph is mutable because the schedulers insert and
    remove communication and spill operations while building a schedule.

    Values are identified with their defining node: the value produced
    by node [u] is consumed by the targets of the [True] out-edges of
    [u].  Loop invariants (values defined before the loop and read-only
    inside it) are kept in a side table since they have no defining
    node. *)

type edge = {
  src : int;
  dst : int;
  dep : Dep.t;
  distance : int;  (** iterations between production and consumption *)
}

(** Read-only outside this module: the counter below is kept in step
    with the lists by {!add_edge}, {!remove_edge}, {!copy} and
    {!of_repr}. *)
type node = private {
  id : int;
  kind : Op.kind;
  mutable succs : edge list;  (** out-edges *)
  mutable preds : edge list;  (** in-edges *)
  mutable others : int;
      (** the non-[True] edges: those in [succs] count in the low 31
          bits, those in [preds] above *)
}

type invariant = {
  inv_id : int;
  mutable inv_consumers : int list;
}

type t

val create : ?name:string -> unit -> t
val name : t -> string
val num_nodes : t -> int
val mem : t -> int -> bool

(** Raises [Invalid_argument] on an unknown id. *)
val node : t -> int -> node

val kind : t -> int -> Op.kind
val succs : t -> int -> edge list
val preds : t -> int -> edge list

(** Returns the fresh node's id. *)
val add_node : t -> Op.kind -> int

(** The id counters: the ids {!add_node} and {!add_invariant} hand out
    next. *)
val next_id : t -> int
val next_inv : t -> int

val add_edge : t -> ?distance:int -> dep:Dep.t -> int -> int -> unit

(** Whether this exact edge is present. *)
val has_edge : t -> edge -> bool

(** Remove a single occurrence (parallel identical edges are legal,
    e.g. [x * x] reads the same value twice). *)
val remove_edge : t -> edge -> unit

(** Remove a node and every edge touching it; invariant consumer lists
    are updated as well. *)
val remove_node : t -> int -> unit

(** Install (or clear) the edge watcher: it fires with [e.src] on every
    edge insertion and removal — i.e. whenever the consumer set of
    [e.src]'s value changes — including the per-edge removals of
    {!remove_node}.  Used by the scheduler to maintain incremental
    per-value lifetime state.  At most one watcher; [copy] and
    {!of_repr} never carry one over. *)
val set_watcher : t -> (int -> unit) option -> unit

val add_invariant : t -> consumers:int list -> int
val invariants : t -> invariant list
val add_invariant_consumer : t -> inv_id:int -> int -> unit

(** Node ids in increasing order (deterministic iteration). *)
val nodes : t -> int list

(** In increasing id order. *)
val iter_nodes : t -> (node -> unit) -> unit
val edges : t -> edge list
val num_edges : t -> int

(** A dense, read-only view of the graph's shape over positions: node
    position [i] is the [i]-th id in increasing order, so position order
    is id order.  Position [i]'s out-edges, in adjacency-list order, are
    the edge indices [first.(i)] to [first.(i + 1) - 1] (compressed
    rows: [first] has [n + 1] cells).  The SCC walk, the RecMII search
    and the HRMS order read this one view instead of mapping ids to
    positions each their own way. *)
type dense = {
  ids : int array;    (** position -> id, increasing *)
  pos : int array;    (** id -> position, -1 for no node; largest id + 1
                          cells *)
  first : int array;  (** position -> its first out-edge index *)
  succ : int array;   (** edge -> target position *)
  dist : int array;   (** edge -> iteration distance *)
  lat : int array;    (** edge -> [latency e] (0 without [latency]) *)
}

(** O(|V| + |E|) past the node array's scan.  Raises
    [Invalid_argument] on an edge to an unknown node. *)
val dense : ?latency:(edge -> int) -> t -> dense

(** [True]-dependence out-edges: the consumers of [id]'s value.  When
    every out-edge is [True] (the common case) this is {!succs} itself,
    found in O(1) from the node's non-[True] counter, so the call
    allocates nothing; likewise {!operands} and {!preds}. *)
val consumers : t -> int -> edge list

(** [True]-dependence in-edges: the values [id] reads. *)
val operands : t -> int -> edge list

val count_kind : t -> (Op.kind -> bool) -> int
val num_memory_ops : t -> int
val num_compute_ops : t -> int

(** Deep copy; shares nothing with the original.  Node ids are
    preserved. *)
val copy : t -> t

(** Immutable, closure-free snapshot of a graph, suitable for
    [Marshal]-based serialization (schedule caching).  Node ids,
    adjacency-list order, invariants and the id counters are all
    preserved, so [of_repr (to_repr g)] is behaviourally identical to
    [g]. *)
type repr = {
  repr_name : string;
  repr_next_id : int;
  repr_next_inv : int;
  repr_nodes : (int * Op.kind * edge list * edge list) list;
      (** id, kind, succs, preds *)
  repr_invariants : (int * int list) list;
}

val to_repr : t -> repr

(** Whether the ids are compact: every id of [repr_nodes] lies in
    [\[0, repr_next_id)], and [repr_next_id] is at most [2·|V| + 64]
    for [|V|] listed nodes.  Checked on the repr, before any graph is
    built: the wire and [.repro] loading refuse graphs that are not. *)
val compact : repr -> bool

(** Raises [Invalid_argument] when [repr_nodes] lists one id twice or
    a negative id.  The node array is sized by the largest id, so
    memory is O(largest id): callers holding outside graphs check
    {!compact} first. *)
val of_repr : repr -> t

val pp : Format.formatter -> t -> unit

(** Structural well-formedness: every edge endpoint exists, and each
    edge appears as often in its target's in-edges as in its source's
    out-edges (parallel edges count); distances are non-negative; node
    and invariant ids lie below the id counters, so fresh ids never
    collide; each node's non-[True] edge counters match its lists. *)
val validate : t -> bool
