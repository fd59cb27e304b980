(** HRMS-style node ordering.

    HRMS [23] pre-orders nodes so that (a) recurrences are dealt with
    first, hardest first, and (b) when a node is scheduled, the
    neighbours already in the partial schedule lie (mostly) on one side
    of it, which keeps lifetimes short.  This implements that intent:
    recurrence SCCs in decreasing RecMII order, each preceded by the
    nodes on dependence paths connecting it to the already-ordered
    region, followed by a neighbourhood expansion that appends the
    adjacent node with minimum mobility (ALAP - ASAP slack). *)

(** ASAP and ALAP over the distance-0 (intra-iteration) subgraph, which
    is acyclic in a well-formed DDG; raises [Invalid_argument] when it
    is not.  Unknown ids map to 0. *)
val asap_alap : Latency.t -> Hcrf_ir.Ddg.t -> (int -> int) * (int -> int)

(** The scheduling priority order: node ids, highest priority first
    (always a permutation of the graph's nodes).  Each expansion step
    appends the unordered node minimising (not adjacent to the ordered
    region, mobility, ASAP, id).  [recs], when given, must be
    [Mii.recurrences lat g]; it saves the SCC/RecMII pass. *)
val compute :
  ?lat:Latency.t -> ?recs:Mii.recurrence list -> Hcrf_machine.Config.t ->
  Hcrf_ir.Ddg.t -> int list
