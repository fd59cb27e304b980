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
    [Some miss_cycles] for the loads to prefetch, [None] otherwise. *)
let plan (config : Hcrf_machine.Config.t) (loop : Loop.t) : int -> int option
    =
  let miss = Hcrf_machine.Config.miss_cycles config in
  if loop.Loop.trip_count <= short_trip_threshold then fun _ -> None
  else begin
    let g = loop.Loop.ddg in
    let in_recurrence = Hashtbl.create 16 in
    List.iter
      (fun scc -> List.iter (fun v -> Hashtbl.replace in_recurrence v ()) scc)
      (Scc.recurrences g);
    let prefetched = Hashtbl.create 16 in
    Ddg.iter_nodes g (fun n ->
        if
          Op.equal_kind n.kind Op.Load
          && not (Hashtbl.mem in_recurrence n.id)
        then Hashtbl.replace prefetched n.id ());
    (* one shared [Some]: the scheduler asks on every latency lookup *)
    let some_miss = Some miss in
    fun id -> if Hashtbl.mem prefetched id then some_miss else None
  end

(** No prefetching at all: every load scheduled with hit latency. *)
let none : int -> int option = fun _ -> None
