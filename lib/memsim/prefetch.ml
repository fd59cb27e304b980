(** Selective binding prefetching (§6.2, following [30]).

    Binding prefetching schedules a load with the cache-miss latency so
    the miss is hidden by the software pipeline; it costs register
    pressure (carried by the shared bank in a hierarchical RF) instead of
    stall cycles.  Selectively, the paper keeps hit-latency scheduling
    for: loads inside recurrences (lengthening a recurrence raises
    RecMII), spill loads (inserted later by the scheduler, they default
    to hit latency), and all loads of short-trip-count loops (to avoid
    long prologues/epilogues). *)

open Hcrf_ir

let short_trip_threshold = 32

(** Latency override for {!Hcrf_sched.Engine.options.load_override}:
    [Some miss_cycles] for the loads to prefetch, [None] otherwise.  The
    scheduler asks on every latency lookup, so the answer is one byte of
    a bitmap indexed by node id, sized by the graph's id counter; ids
    past it (nodes the engine inserts, such as spill loads) and negative
    ids answer [None]. *)
let plan (config : Hcrf_machine.Config.t) (loop : Loop.t) : int -> int option
    =
  let miss = Hcrf_machine.Config.miss_cycles config in
  if loop.Loop.trip_count <= short_trip_threshold then fun _ -> None
  else begin
    let g = loop.Loop.ddg in
    let prefetched = Bytes.make (Ddg.next_id g) '\000' in
    Ddg.iter_nodes g (fun n ->
        if Op.equal_kind n.kind Op.Load then Bytes.set prefetched n.id '\001');
    List.iter
      (fun scc -> List.iter (fun v -> Bytes.set prefetched v '\000') scc)
      (Scc.recurrences g);
    let len = Bytes.length prefetched in
    (* one shared [Some] *)
    let some_miss = Some miss in
    fun id ->
      if id >= 0 && id < len && Bytes.unsafe_get prefetched id <> '\000'
      then some_miss
      else None
  end

(** No prefetching at all: every load scheduled with hit latency. *)
let none : int -> int option = fun _ -> None
