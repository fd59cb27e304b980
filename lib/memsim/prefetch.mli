(** Selective binding prefetching (§6.2, following [30]).

    Binding prefetching schedules a load with the cache-miss latency so
    the miss is hidden by the software pipeline; it costs register
    pressure instead of stall cycles.  Selectively, the paper keeps
    hit-latency scheduling for loads inside recurrences (lengthening a
    recurrence raises RecMII), spill loads, and all loads of
    short-trip-count loops (to avoid long prologues/epilogues). *)

val short_trip_threshold : int

(** Latency override for {!Hcrf_sched.Engine.options} —
    [Some miss_cycles] for the loads to prefetch, [None] otherwise.
    Answers from a bitmap sized by the graph's id counter
    ({!Hcrf_ir.Ddg.next_id}): ids at or past it, such as nodes the
    engine inserts, and negative ids answer [None]. *)
val plan : Hcrf_machine.Config.t -> Hcrf_ir.Loop.t -> int -> int option

(** No prefetching at all: every load scheduled with hit latency. *)
val none : int -> int option
