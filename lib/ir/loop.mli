(** A software-pipelineable innermost loop: its dependence graph plus
    the execution metadata the evaluation needs.

    [trip_count] is the number of iterations N per entry and [entries]
    the number of times E the loop is started (prologue/epilogue
    overhead is paid once per entry).  Memory [streams] describe the
    address sequence issued by each memory operation so the cache
    simulator can replay the loop without the original program. *)

type stream = {
  op : int;      (** node id of the load/store issuing the stream *)
  base : int;    (** first byte address *)
  stride : int;  (** bytes between consecutive iterations *)
}

type t = {
  ddg : Ddg.t;
  trip_count : int;
  entries : int;
  streams : stream list;
}

(** Raises [Invalid_argument] on non-positive counts. *)
val make :
  ?trip_count:int -> ?entries:int -> ?streams:stream list -> Ddg.t -> t

(** Closure-free snapshot of a loop, the one form a loop is marshalled
    in: the daemon's requests carry it.  A live [Ddg.t] may carry a
    watcher closure; {!Ddg.repr} does not.
    The field order and types are part of the daemon's wire format —
    changing them changes its bytes. *)
type repr = {
  repr_ddg : Ddg.repr;
  repr_trip_count : int;
  repr_entries : int;
  repr_streams : stream list;
}

val to_repr : t -> repr

(** Ids and adjacency order are preserved, so [of_repr (to_repr l)] is
    behaviourally identical to [l].  Raises [Invalid_argument] on
    non-positive counts or a repeated or negative node id; the graph
    itself is not checked (see {!Ddg.validate}). *)
val of_repr : repr -> t

val name : t -> string

(** Total dynamic iterations, [trip_count * entries]. *)
val total_iterations : t -> int

(** Memory accesses per iteration of the *original* loop body (spill
    code added by the scheduler is accounted separately). *)
val memory_refs_per_iter : t -> int

val stream_for : t -> int -> stream option
