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
    counts are scaled to the loop's full [N * E] execution. *)

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

    The hot loop costs a handful of integer operations per simulated
    access and allocates nothing.  The sorted references are copied
    into flat int columns once per run.  The pending fills live in two
    flat arrays (line, ready time), oldest first, and are compacted
    only when the earliest ready time [min_ready] is due, which is
    exact: an access removes the fills ready by its issue time, and
    there are none while [min_ready] is later.  The cache is probed by
    line address with a shift and a mask ({!Cache.access_line}, inlined
    here). *)
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
  and r_stride = Array.map (fun r -> r.stride) refs in
  let sim_iters = max 1 (min n max_sim_iterations) in
  let stall = ref 0 and misses = ref 0 in
  (* pending fills, oldest first: [p_line.(k)], [p_ready.(k)] for
     k < [np]; [min_ready] is the smallest ready time among them
     ([max_int] when none).  A miss with every MSHR busy first retires
     one fill, so [np] never exceeds [mshrs]. *)
  let p_line = Array.make mshrs 0 and p_ready = Array.make mshrs 0 in
  let np = ref 0 and min_ready = ref max_int in
  for i = 0 to sim_iters - 1 do
    for j = 0 to nrefs - 1 do
      (* stalls block the in-order pipeline: later issues shift by the
         accumulated stall, which also lets the pending fills drain
         (the miss queue cannot grow without bound) *)
      let t_issue = (i * ii) + r_offset.(j) + !stall in
      let line = Cache.line_addr cache (r_base.(j) + (i * r_stride.(j))) in
      (* fills that have arrived by now leave the queue *)
      if !min_ready <= t_issue then begin
        let kept = ref 0 and m = ref max_int in
        for k = 0 to !np - 1 do
          let rdy = p_ready.(k) in
          if rdy > t_issue then begin
            p_line.(!kept) <- p_line.(k);
            p_ready.(!kept) <- rdy;
            if rdy < !m then m := rdy;
            incr kept
          end
        done;
        np := !kept;
        min_ready := !m
      end;
      let hit = Cache.access_line cache line in
      if not hit then incr misses;
      if r_load.(j) then begin
        let ready =
          if hit then t_issue + hit_read
          else begin
            (* the newest fill of this line in flight, if any *)
            let k = ref (!np - 1) in
            while !k >= 0 && p_line.(!k) <> line do decr k done;
            if !k >= 0 then p_ready.(!k) (* merge with the fill *)
            else begin
              let start =
                if !np < mshrs then t_issue
                else begin
                  (* All MSHRs busy: the new miss steals the slot of
                     the oldest pending fill, which means waiting until
                     that fill retires.  The stolen entry must leave
                     the queue, or occupancy grows beyond [mshrs] and
                     every later full-queue miss sees the same (stale)
                     oldest ready time, underestimating the
                     serialization.  Among equal ready times the
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
          end
        in
        let need = t_issue + r_latency.(j) in
        if ready > need then stall := !stall + (ready - need)
      end
      else if (not hit) && !np < mshrs then begin
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
    done
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
