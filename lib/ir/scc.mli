(** Strongly connected components of a DDG (Tarjan).

    In a well-formed dependence graph every cycle contains at least one
    loop-carried edge, so non-trivial SCCs are exactly the recurrences:
    they bound the initiation interval from below (RecMII) and make
    their loops "recurrence bound".  The walk runs over the graph's
    dense view ({!Ddg.dense}). *)

val sccs : Ddg.t -> int list list

(** The components with more than one node or a self edge. *)
val recurrences : Ddg.t -> int list list
val has_recurrence : Ddg.t -> bool

(** {!recurrences} over a dense view, as lists of positions in it. *)
val recurrences_dense : Ddg.dense -> int list list
