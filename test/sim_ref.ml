(* Reference specification of the stall simulation: the original
   list-based [Sim.run], which keeps the pending fills as a list
   (newest first), rebuilds it with [List.filter] on every access and
   finds a line's fill with [List.assoc_opt].  [Hcrf_memsim.Sim.run]
   replaces the list with flat arrays, oldest first, and runs the timing
   model only at misses, retiring at each miss the fills ready by the
   latest issue time since the previous one; the two must agree on
   every field of the result for
   any references, which test_memsim.ml checks over random reference
   sets and over a workbench under binding prefetch.

   The reference shares no code with the simulator it checks: line,
   set and tag come from floored division (not [Cache]'s shift and
   mask), and each set is a list of tags, most recently used first,
   instead of [Cache]'s stamped ways. *)

open Hcrf_memsim

(* Floored quotient and remainder (the divisors are positive). *)
let fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1
let fmod a b = let m = a mod b in if m < 0 then m + b else m

let line_addr ~line_bytes addr = fdiv addr line_bytes

(* A set-associative LRU cache on line addresses: [true] on hit; a miss
   allocates the line and drops the least recently used tag of a full
   set. *)
let lru_cache ~size_bytes ~line_bytes ~assoc =
  let sets = size_bytes / (line_bytes * assoc) in
  let ways = Array.make sets [] in
  fun line ->
    let s = fmod line sets and tag = fdiv line sets in
    let hit = List.mem tag ways.(s) in
    let rest = List.filter (fun t -> t <> tag) ways.(s) in
    ways.(s) <- List.filteri (fun k _ -> k < assoc) (tag :: rest);
    hit

let run ?(mshrs = 8) ?(size_bytes = 32 * 1024) ?(line_bytes = 32)
    ?(assoc = 2) ~ii ~hit_read ~miss_cycles ~n ~e (refs : Sim.mem_ref list) :
    Sim.result =
  let refs =
    List.sort
      (fun (a : Sim.mem_ref) (b : Sim.mem_ref) ->
        compare a.issue_offset b.issue_offset)
      refs
  in
  let access = lru_cache ~size_bytes ~line_bytes ~assoc in
  let sim_iters = max 1 (min n Sim.max_sim_iterations) in
  let stall = ref 0 in
  let misses = ref 0 and accesses = ref 0 in
  (* pending fills: (line, ready_time), newest first, length <= mshrs *)
  let pending = ref [] in
  let line addr = line_addr ~line_bytes addr in
  (* the newest entry among equal minimum ready times is the one
     [List.filter] meets first, so it is the one retired *)
  let retire_oldest () =
    let oldest =
      List.fold_left (fun acc (_, rdy) -> min acc rdy) max_int !pending
    in
    let removed = ref false in
    pending :=
      List.filter
        (fun (_, rdy) ->
          if (not !removed) && rdy = oldest then begin
            removed := true;
            false
          end
          else true)
        !pending;
    oldest
  in
  for i = 0 to sim_iters - 1 do
    List.iter
      (fun (r : Sim.mem_ref) ->
        let t_issue = (i * ii) + r.issue_offset + !stall in
        let addr = r.base + (i * r.stride) in
        incr accesses;
        pending := List.filter (fun (_, rdy) -> rdy > t_issue) !pending;
        let hit = access (line addr) in
        if not hit then incr misses;
        if r.is_load then begin
          let ready =
            if hit then t_issue + hit_read
            else
              match List.assoc_opt (line addr) !pending with
              | Some rdy -> rdy
              | None ->
                let start =
                  if List.length !pending >= mshrs then retire_oldest ()
                  else t_issue
                in
                let rdy = max start t_issue + miss_cycles in
                pending := (line addr, rdy) :: !pending;
                rdy
          in
          let need = t_issue + r.sched_latency in
          if ready > need then stall := !stall + (ready - need)
        end
        else if (not hit) && List.length !pending < mshrs then
          pending := (line addr, t_issue + miss_cycles) :: !pending)
      refs
  done;
  let scale = float_of_int n /. float_of_int sim_iters *. float_of_int e in
  {
    Sim.stall_cycles = float_of_int !stall *. scale;
    simulated_iterations = sim_iters;
    misses = !misses;
    accesses = !accesses;
  }
