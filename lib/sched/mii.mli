(** Lower bounds on the initiation interval.

    [ResMII] assumes perfectly balanced use of the replicated resources
    (FUs and, when clustered, memory ports); [RecMII] is the classic
    maximum over dependence cycles of ceil(sum latency / sum distance),
    computed per SCC with a binary search on II and a positive-cycle
    (Floyd-Warshall) test on edge weights latency - II * distance.

    The SCC walk and each SCC's edge list read the graph's dense view
    ({!Hcrf_ir.Ddg.dense}).  {!analyse} returns that view with the
    recurrences it found, so [Engine.schedule] builds it once per loop
    and hands both to [Order.hrms]. *)

type bounds = {
  fu : int;    (** bound from FU issue slots (non-pipelined ops count
                   their whole latency) *)
  mem : int;   (** bound from memory ports *)
  comm : int;  (** bound from inter-bank ports/buses *)
  rec_ : int;  (** bound from recurrences (1 for an acyclic graph) *)
}

val mii : bounds -> int

(** The resource components (fu, mem, comm). *)
val res_mii : Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t -> int * int * int

(** A recurrence ({!Hcrf_ir.Scc.recurrences}) and its RecMII. *)
type recurrence = { rmii : int; scc : int list }

(** One loop's SCC/RecMII pass with the dense view it read: [view]
    carries every edge's latency under the pass's table, and [recs] is
    every recurrence of [graph], in {!Hcrf_ir.Scc.recurrences} order.
    Only {!analyse} builds one, so the three always agree. *)
type analysis = private {
  graph : Hcrf_ir.Ddg.t;
  view : Hcrf_ir.Ddg.dense;
  recs : recurrence list;
}

val analyse : Latency.t -> Hcrf_ir.Ddg.t -> analysis

(** [(analyse lat g).recs]. *)
val recurrences : Latency.t -> Hcrf_ir.Ddg.t -> recurrence list

val rec_mii : Latency.t -> Hcrf_ir.Ddg.t -> int

(** [recs], when given, must be [recurrences lat g]; it saves the
    SCC/RecMII pass. *)
val bounds :
  ?lat:Latency.t -> ?recs:recurrence list -> Hcrf_machine.Config.t ->
  Hcrf_ir.Ddg.t -> bounds

(** max(1, max of all bounds); the whole computation is recorded as a
    [Phase Mii] span on [trace].  [recs] as for {!bounds}. *)
val compute :
  ?trace:Hcrf_obs.Trace.t -> ?lat:Latency.t -> ?recs:recurrence list ->
  Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t -> int
