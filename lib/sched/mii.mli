(** Lower bounds on the initiation interval.

    [ResMII] assumes perfectly balanced use of the replicated resources
    (FUs and, when clustered, memory ports); [RecMII] is the classic
    maximum over dependence cycles of ceil(sum latency / sum distance),
    computed per SCC with a binary search on II and a positive-cycle
    (Floyd-Warshall) test on edge weights latency - II * distance. *)

type bounds = {
  fu : int;    (** bound from FU issue slots (non-pipelined ops count
                   their whole latency) *)
  mem : int;   (** bound from memory ports *)
  comm : int;  (** bound from inter-bank ports/buses *)
  rec_ : int;  (** bound from recurrences (1 for an acyclic graph) *)
}

val mii : bounds -> int
val pp_bounds : Format.formatter -> bounds -> unit

(** The resource components (fu, mem, comm). *)
val res_mii : Hcrf_machine.Config.t -> Hcrf_ir.Ddg.t -> int * int * int

(** RecMII of one SCC: the smallest II admitting no positive cycle. *)
val scc_rec_mii : Latency.t -> Hcrf_ir.Ddg.t -> int list -> int

(** A recurrence ({!Hcrf_ir.Scc.recurrences}) and its RecMII. *)
type recurrence = { rmii : int; scc : int list }

(** The SCC/RecMII pass: every recurrence of the graph, in
    {!Hcrf_ir.Scc.recurrences} order.  [Engine.schedule] runs it once
    per loop and hands it to both {!compute} and [Order.compute]. *)
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
