(** A software-pipelineable innermost loop: its dependence graph plus the
    execution metadata the evaluation needs.

    [trip_count] is the number of iterations N per entry and [entries] the
    number of times E the loop is started (prologue/epilogue overhead is
    paid once per entry).  Memory [streams] describe the address sequence
    issued by each memory operation so the cache simulator can replay the
    loop without the original program. *)

type stream = {
  op : int;           (** node id of the load/store issuing the stream *)
  base : int;         (** first byte address *)
  stride : int;       (** bytes between consecutive iterations *)
}

type t = {
  ddg : Ddg.t;
  trip_count : int;
  entries : int;
  streams : stream list;
}

let make ?(trip_count = 100) ?(entries = 1) ?(streams = []) ddg =
  if trip_count < 1 then invalid_arg "Loop.make: trip_count < 1";
  if entries < 1 then invalid_arg "Loop.make: entries < 1";
  { ddg; trip_count; entries; streams }

type repr = {
  repr_ddg : Ddg.repr;
  repr_trip_count : int;
  repr_entries : int;
  repr_streams : stream list;
}

let to_repr t =
  { repr_ddg = Ddg.to_repr t.ddg; repr_trip_count = t.trip_count;
    repr_entries = t.entries; repr_streams = t.streams }

let of_repr r =
  make ~trip_count:r.repr_trip_count ~entries:r.repr_entries
    ~streams:r.repr_streams (Ddg.of_repr r.repr_ddg)

let name t = Ddg.name t.ddg

(** Total dynamic iterations N * E. *)
let total_iterations t = t.trip_count * t.entries

(** Memory accesses per iteration of the *original* loop body (spill code
    added by the scheduler is accounted separately). *)
let memory_refs_per_iter t = Ddg.num_memory_ops t.ddg

let stream_for t op_id = List.find_opt (fun s -> s.op = op_id) t.streams
