(** Trace-driven stall-cycle simulation of one scheduled loop.

    The paper's real-memory evaluation instruments the source program and
    replays it through a memory simulator; we replay the loop's memory
    streams through the {!Cache} with a small timing model:

    - the cache is lockup-free with [mshrs] outstanding misses; misses to
      a line already in flight merge with the pending fill;
    - a load stalls the processor by (fill ready time - the time the
      schedule expects the value), i.e. a miss on a hit-scheduled load
      costs roughly the miss penalty, while a prefetched (miss-scheduled)
      load only stalls if MSHR pressure delays its fill;
    - stores allocate in the cache (write-allocate) but never stall (a
      store buffer is assumed).

    Only a bounded number of iterations of one entry is simulated; stall
    counts are scaled to the loop's full [N * E] execution.

    Most accesses hit, and a hit costs one cache probe: the timing model
    runs at misses only, retiring the fills that arrived since the
    previous miss by the latest issue time in between (see {!run} for
    why that is exact and why issue times are not monotone). *)

type mem_ref = {
  node : int;
  is_load : bool;
  issue_offset : int;   (** flat schedule cycle of the op *)
  sched_latency : int;  (** latency the schedule assumed for the value *)
  base : int;
  stride : int;
}

type result = {
  stall_cycles : float;    (** scaled to the loop's full execution *)
  simulated_iterations : int;
  misses : int;
  accesses : int;
}

let max_sim_iterations = 2048

(** [refs] must describe every memory operation of the *final* graph
    (including spill code; give spill slots a fixed address).  [ii] is
    the initiation interval, [n]/[e] the trip and entry counts, [mshrs]
    at least 1.  [debug] asserts the MSHR occupancy invariant after
    every allocation.

    Whether an access hits depends on the address sequence alone, so
    every access only probes the cache ({!Cache.probe}, inlined here
    under the default release profile) and the timing model runs at
    misses.  A hit never touches the pending fills; its only timing
    effect is the stall of a load scheduled below the hit latency, a
    constant of its reference ([r_hit_stall]).

    Retiring the fills that have arrived waits until the next miss.  An
    access retires every fill ready by its issue time, so by a miss the
    fills ready by the latest issue time since the previous miss have
    left.  That is not the miss's own issue time: issue times ascend
    within an iteration (references sorted by offset, stalls only grow)
    but fall back at each iteration boundary when the schedule spans
    more than [ii] cycles, so the end of one iteration can issue after
    a miss early in the next.  Nor is it the latest issue time ever
    seen: an access retires only the fills in flight when it issues,
    never one that a later miss pushes.  Within an iteration the latest
    issue so far is the current one, so [due] keeps the latest issue
    time of the earlier iterations' last accesses since the previous
    miss: one compare per iteration.

    The pending fills live in two flat arrays (line, ready time),
    oldest first, and are compacted only when the earliest ready time
    [min_ready] is due, which is exact: there are none to retire while
    [min_ready] is later. *)
let run ?(mshrs = 8) ?(debug = false) ?(cache = Cache.create ()) ~ii
    ~hit_read ~miss_cycles ~n ~e (refs : mem_ref list) =
  if mshrs < 1 then invalid_arg "Sim.run: mshrs must be at least 1";
  (* stable: refs issuing in the same cycle keep their list order *)
  let refs =
    Array.of_list
      (List.stable_sort (fun a b -> compare a.issue_offset b.issue_offset)
         refs)
  in
  let nrefs = Array.length refs in
  let r_load = Array.map (fun r -> r.is_load) refs
  and r_offset = Array.map (fun r -> r.issue_offset) refs
  and r_latency = Array.map (fun r -> r.sched_latency) refs
  and r_base = Array.map (fun r -> r.base) refs
  and r_stride = Array.map (fun r -> r.stride) refs
  (* a load hit's value is ready [hit_read] cycles after its issue *)
  and r_hit_stall =
    Array.map
      (fun r -> if r.is_load then max 0 (hit_read - r.sched_latency) else 0)
      refs
  in
  let sim_iters = max 1 (min n max_sim_iterations) in
  let stall = ref 0 and misses = ref 0 in
  (* pending fills, oldest first: [p_line.(k)], [p_ready.(k)] for
     k < [np]; [min_ready] is the smallest ready time among them
     ([max_int] when none).  A miss with every MSHR busy first retires
     one fill, so [np] never exceeds [mshrs]. *)
  let p_line = Array.make mshrs 0 and p_ready = Array.make mshrs 0 in
  let np = ref 0 and min_ready = ref max_int in
  (* the latest issue time of an earlier iteration's last access since
     the previous miss ([min_int] when none), and whether the current
     iteration's last access missed *)
  let due = ref min_int and tail_missed = ref false in
  let last = nrefs - 1 in
  if nrefs > 0 then
    for i = 0 to sim_iters - 1 do
      (* [j] indexes the [nrefs]-long columns: no bounds checks on the
         hit path *)
      for j = 0 to last do
        let line =
          Cache.line_addr cache
            (Array.unsafe_get r_base j + (i * Array.unsafe_get r_stride j))
        in
        if Cache.probe cache line then
          stall := !stall + Array.unsafe_get r_hit_stall j
        else begin
          incr misses;
          (* stalls block the in-order pipeline: later issues shift by
             the accumulated stall, which also lets the pending fills
             drain (the miss queue cannot grow without bound) *)
          let t_issue = (i * ii) + r_offset.(j) + !stall in
          (* fills that have arrived by the latest issue since the
             previous miss leave the queue *)
          let horizon = if !due > t_issue then !due else t_issue in
          due := min_int;
          tail_missed := j = last;
          if !min_ready <= horizon then begin
            let kept = ref 0 and m = ref max_int in
            for k = 0 to !np - 1 do
              let rdy = p_ready.(k) in
              if rdy > horizon then begin
                p_line.(!kept) <- p_line.(k);
                p_ready.(!kept) <- rdy;
                if rdy < !m then m := rdy;
                incr kept
              end
            done;
            np := !kept;
            min_ready := !m
          end;
          if r_load.(j) then begin
            (* the newest fill of this line in flight, if any *)
            let k = ref (!np - 1) in
            while !k >= 0 && p_line.(!k) <> line do decr k done;
            let ready =
              if !k >= 0 then p_ready.(!k) (* merge with the fill *)
              else begin
                let start =
                  if !np < mshrs then t_issue
                  else begin
                    (* All MSHRs busy: the new miss steals the slot of
                       the oldest pending fill, which means waiting
                       until that fill retires.  The stolen entry must
                       leave the queue, or occupancy grows beyond
                       [mshrs] and every later full-queue miss sees the
                       same (stale) oldest ready time, underestimating
                       the serialization.  Among equal ready times the
                       newest entry goes. *)
                    let oldest = !min_ready in
                    let v = ref (!np - 1) in
                    while p_ready.(!v) <> oldest do decr v done;
                    let m = ref max_int in
                    for k = 0 to !np - 2 do
                      if k >= !v then begin
                        p_line.(k) <- p_line.(k + 1);
                        p_ready.(k) <- p_ready.(k + 1)
                      end;
                      if p_ready.(k) < !m then m := p_ready.(k)
                    done;
                    decr np;
                    min_ready := !m;
                    oldest
                  end
                in
                let rdy =
                  (if start > t_issue then start else t_issue) + miss_cycles
                in
                p_line.(!np) <- line;
                p_ready.(!np) <- rdy;
                incr np;
                if rdy < !min_ready then min_ready := rdy;
                if debug then assert (!np <= mshrs);
                rdy
              end
            in
            let need = t_issue + r_latency.(j) in
            if ready > need then stall := !stall + (ready - need)
          end
          else if !np < mshrs then begin
            (* write-allocate fill occupies an MSHR but does not stall;
               when every MSHR is busy the fill is simply dropped (the
               store buffer holds the data), so the bound still holds *)
            let rdy = t_issue + miss_cycles in
            p_line.(!np) <- line;
            p_ready.(!np) <- rdy;
            incr np;
            if rdy < !min_ready then min_ready := rdy;
            if debug then assert (!np <= mshrs)
          end
        end
      done;
      (* a hit at the iteration's end may issue after the next miss *)
      if !tail_missed then tail_missed := false
      else begin
        let t_last = (i * ii) + r_offset.(last) + !stall - r_hit_stall.(last) in
        if t_last > !due then due := t_last
      end
    done;
  let scale =
    float_of_int n /. float_of_int sim_iters *. float_of_int e
  in
  {
    stall_cycles = float_of_int !stall *. scale;
    simulated_iterations = sim_iters;
    misses = !misses;
    accesses = sim_iters * nrefs;
  }
