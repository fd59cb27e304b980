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

(** Where a loop keeps its {!key}; opaque. *)
type slot

(** Built only by {!make} and {!of_repr}.  The graph is frozen once
    the loop is built: mutating [ddg] would leave the carried {!key}
    stale (the engine schedules a {!Ddg.copy}, and [Morph] and [Shrink]
    build new loops). *)
type t = private {
  ddg : Ddg.t;
  trip_count : int;
  entries : int;
  streams : stream list;
  slot : slot;
}

(** Raises [Invalid_argument] on non-positive counts, or when two
    streams name one op: the cache simulator replays an op's first
    stream only, while {!key} sorts them. *)
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
    non-positive counts, two streams on one op, or a repeated or
    negative node id; the graph itself is not checked (see
    {!Ddg.validate}). *)
val of_repr : repr -> t

(** The loop's key: the raw 16-byte MD5 of one canonical,
    id-sensitive {!Transcript}.  In node-id order it holds each node's
    id and kind, then its out-edges sorted as (dst, dep, distance);
    after the nodes come the memory streams sorted as (op, base,
    stride), the invariants by id with their consumers sorted, the trip
    and entry counts, and the graph's id counters ([repr_next_id],
    [repr_next_inv]); not the name.  Computed on the first read and
    carried: later reads, from any domain, return it without
    allocating. *)
val key : t -> string

val name : t -> string

(** Total dynamic iterations, [trip_count * entries]. *)
val total_iterations : t -> int

(** Memory accesses per iteration of the *original* loop body (spill
    code added by the scheduler is accounted separately). *)
val memory_refs_per_iter : t -> int

val stream_for : t -> int -> stream option
