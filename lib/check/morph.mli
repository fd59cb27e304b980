(** Structure-preserving loop rewrites for the metamorphic oracle.

    A rewrite relabels node ids through a bijection and reverses every
    adjacency list (and invariant consumer list), producing a loop that
    is isomorphic to the original — same reference semantics — while
    looking as different as possible to anything that iterates over ids
    or edge lists. *)

(** A bijection on the graph's node ids that maps the sorted id
    sequence onto its reverse (identity outside the graph, and the
    identity function for a single-node graph). *)
val reversing_bijection : Hcrf_ir.Ddg.t -> int -> int

(** Rebuild [loop] with every node id mapped through [m] and every
    adjacency, consumer and stream table rewritten accordingly.
    [m = Fun.id] still reverses the adjacency-list order, which is the
    "reorder only" twin. *)
val rewrite_loop : m:(int -> int) -> Hcrf_ir.Loop.t -> Hcrf_ir.Loop.t
