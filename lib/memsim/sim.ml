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
    the initiation interval, [n]/[e] the trip and entry counts.
    [debug] asserts the MSHR occupancy invariant after every
    allocation.

    The simulated accesses allocate nothing: the pending fills live in
    two flat arrays (line, ready time), oldest first, and the cache is
    probed by line address. *)
let run ?(mshrs = 8) ?(debug = false) ?(cache = Cache.create ()) ~ii
    ~hit_read ~miss_cycles ~n ~e (refs : mem_ref list) =
  (* stable: refs issuing in the same cycle keep their list order *)
  let refs =
    Array.of_list
      (List.stable_sort (fun a b -> compare a.issue_offset b.issue_offset)
         refs)
  in
  let nrefs = Array.length refs in
  let sim_iters = max 1 (min n max_sim_iterations) in
  let stall = ref 0 in
  let misses = ref 0 and accesses = ref 0 in
  (* pending fills, oldest first: [p_line.(k)], [p_ready.(k)] for
     k < [np].  A miss with every MSHR busy first retires one fill, so
     [np] never exceeds [max 1 mshrs]. *)
  let slots = max 1 mshrs in
  let p_line = Array.make slots 0 and p_ready = Array.make slots 0 in
  let np = ref 0 in
  let push line rdy =
    p_line.(!np) <- line;
    p_ready.(!np) <- rdy;
    incr np;
    if debug then assert (!np <= mshrs)
  in
  (* All MSHRs busy: the new miss steals the slot of the oldest pending
     fill, which means waiting until that fill retires.  The stolen
     entry must leave the queue, or occupancy grows beyond [mshrs] and
     every subsequent full-queue miss sees the same (stale) oldest
     ready time, underestimating the serialization.  Among equal ready
     times the newest entry goes. *)
  let retire_oldest () =
    let victim = ref (-1) and oldest = ref max_int in
    for k = 0 to !np - 1 do
      if p_ready.(k) <= !oldest then begin
        oldest := p_ready.(k);
        victim := k
      end
    done;
    if !victim >= 0 then begin
      for k = !victim to !np - 2 do
        p_line.(k) <- p_line.(k + 1);
        p_ready.(k) <- p_ready.(k + 1)
      done;
      decr np
    end;
    !oldest
  in
  for i = 0 to sim_iters - 1 do
    for j = 0 to nrefs - 1 do
      let r = refs.(j) in
      (* stalls block the in-order pipeline: later issues shift by the
         accumulated stall, which also lets the pending fills drain
         (the miss queue cannot grow without bound) *)
      let t_issue = (i * ii) + r.issue_offset + !stall in
      let line = Cache.line_addr cache (r.base + (i * r.stride)) in
      incr accesses;
      (* fills that have arrived by now leave the queue *)
      let kept = ref 0 in
      for k = 0 to !np - 1 do
        if p_ready.(k) > t_issue then begin
          p_line.(!kept) <- p_line.(k);
          p_ready.(!kept) <- p_ready.(k);
          incr kept
        end
      done;
      np := !kept;
      let hit = Cache.access_line cache line in
      if not hit then incr misses;
      if r.is_load then begin
        let ready =
          if hit then t_issue + hit_read
          else begin
            (* the newest fill of this line in flight, if any *)
            let k = ref (!np - 1) in
            while !k >= 0 && p_line.(!k) <> line do decr k done;
            if !k >= 0 then p_ready.(!k) (* merge with the fill *)
            else begin
              let start =
                if !np >= mshrs then retire_oldest () else t_issue
              in
              let rdy = max start t_issue + miss_cycles in
              push line rdy;
              rdy
            end
          end
        in
        let need = t_issue + r.sched_latency in
        if ready > need then stall := !stall + (ready - need)
      end
      else if (not hit) && !np < mshrs then
        (* write-allocate fill occupies an MSHR but does not stall;
           when every MSHR is busy the fill is simply dropped (the
           store buffer holds the data), so the bound still holds *)
        push line (t_issue + miss_cycles)
    done
  done;
  let scale =
    float_of_int n /. float_of_int sim_iters *. float_of_int e
  in
  {
    stall_cycles = float_of_int !stall *. scale;
    simulated_iterations = sim_iters;
    misses = !misses;
    accesses = !accesses;
  }
