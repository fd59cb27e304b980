(** HRMS-style node ordering.

    HRMS [23] pre-orders nodes so that (a) recurrences are dealt with
    first, hardest first, and (b) when a node is scheduled, the
    neighbours already in the partial schedule lie (mostly) on one side
    of it, which keeps lifetimes short.  This implements that intent:
    recurrence SCCs in decreasing RecMII order, each preceded by the
    nodes on dependence paths connecting it to the already-ordered
    region, followed by a neighbourhood expansion that appends the
    adjacent node with minimum mobility (ALAP - ASAP slack).

    It reads the graph's dense view from {!Mii.analysis}, the one the
    SCC/RecMII pass read.  The expansion ranks every node once by
    (mobility, ASAP, id) and keeps the adjacent unordered nodes in a
    heap by rank, so a whole order takes O((|V| + |E|) log |V|). *)

(** ASAP and ALAP over the distance-0 (intra-iteration) subgraph, which
    is acyclic in a well-formed DDG; raises [Invalid_argument] when it
    is not.  Unknown ids map to 0.  No scheduler pass calls it: it
    exposes the order's own ASAP/ALAP pass to the tests. *)
val asap_alap : Latency.t -> Hcrf_ir.Ddg.t -> (int -> int) * (int -> int)

(** The scheduling priority order of the analysed graph: node ids,
    highest priority first (always a permutation of the graph's nodes).
    Each expansion step appends the unordered node minimising (not
    adjacent to the ordered region, mobility, ASAP, id). *)
val hrms : Mii.analysis -> int list

(** [hrms (Mii.analyse lat g)], under [Latency.make config] when [lat]
    is not given. *)
val compute :
  ?lat:Latency.t -> Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t -> int list

(** The plain topological order of the non-iterative scheduler [36]:
    the analysed graph's node ids by (ASAP, id). *)
val topological : Mii.analysis -> int list
