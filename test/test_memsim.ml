(* Tests for the memory hierarchy: cache behaviour, the MSHR/stall
   model and the selective binding-prefetch planner. *)

open Hcrf_memsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_geometry () =
  let c = Cache.create () in
  check_int "line bytes" 32 c.Cache.line_bytes;
  check_int "sets (32KB, 2-way)" 512 c.Cache.sets;
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Cache.create: size not divisible by line*assoc")
    (fun () -> ignore (Cache.create ~size_bytes:1000 ()))

(* Hits and misses of [Cache.access] over [addrs]. *)
let count_hits c addrs =
  List.fold_left
    (fun (h, m) a -> if Cache.access c a then (h + 1, m) else (h, m + 1))
    (0, 0) addrs

let test_cache_unit_stride () =
  (* stride-8 doubles: one miss per 32-byte line, then 3 hits *)
  let hits, misses =
    count_hits (Cache.create ()) (List.init (4 * 100) (fun i -> i * 8))
  in
  check_int "one miss per line" 100 misses;
  check_int "hits" 300 hits

let test_cache_temporal_reuse () =
  let c = Cache.create () in
  ignore (Cache.access c 64);
  check "second access hits" true (Cache.access c 64);
  check "same line hits" true (Cache.access c 65)

let test_cache_lru_eviction () =
  let c = Cache.create ~size_bytes:128 ~line_bytes:32 ~assoc:2 () in
  (* 2 sets of 2 ways; three lines mapping to set 0: 0, 128, 256 *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 0);   (* touch 0: 128 becomes LRU *)
  ignore (Cache.access c 256); (* evicts 128 *)
  check "0 still resident" true (Cache.access c 0);
  check "128 evicted" false (Cache.access c 128)

let test_cache_counters () =
  (* 16 KB of lines fits the 32 KB cache: a second pass hits
     throughout; 64 KB does not, and under LRU a second sequential pass
     misses throughout *)
  let pass bytes = List.init (bytes / 32) (fun k -> k * 32) in
  let twice bytes = count_hits (Cache.create ()) (pass bytes @ pass bytes) in
  let hits, misses = twice (16 * 1024) in
  check_int "fitting: compulsory misses only" 512 misses;
  check_int "fitting: second pass hits" 512 hits;
  let hits, misses = twice (64 * 1024) in
  check_int "thrashing: no hit" 0 hits;
  check_int "thrashing: every access misses" 4096 misses

(* ------------------------------------------------------------------ *)
(* Sim *)

let mk_ref ?(node = 0) ?(is_load = true) ?(offset = 0) ?(sched = 2)
    ?(base = 0) ?(stride = 8) () =
  { Sim.node; is_load; issue_offset = offset; sched_latency = sched; base;
    stride }

let test_sim_all_hits_no_stall () =
  (* stride 0: after the first fill everything hits; with a generous
     schedule latency the single compulsory miss is absorbed *)
  let r =
    Sim.run ~ii:4 ~hit_read:2 ~miss_cycles:10 ~n:100 ~e:1
      [ mk_ref ~stride:0 ~sched:10 () ]
  in
  check "no stall" true (r.Sim.stall_cycles = 0.);
  check_int "one compulsory miss" 1 r.Sim.misses

let test_sim_hit_scheduled_miss_stalls () =
  (* a load scheduled with hit latency that misses pays ~(miss - hit) *)
  let r =
    Sim.run ~ii:4 ~hit_read:2 ~miss_cycles:12 ~n:1 ~e:1
      [ mk_ref ~sched:2 () ]
  in
  check "stalls by miss - hit" true (r.Sim.stall_cycles = 10.)

let test_sim_prefetched_miss_no_stall () =
  let r =
    Sim.run ~ii:4 ~hit_read:2 ~miss_cycles:12 ~n:64 ~e:1
      [ mk_ref ~sched:12 () ]
  in
  check "prefetch hides misses" true (r.Sim.stall_cycles = 0.)

let test_sim_stall_scales_with_entries () =
  let one =
    Sim.run ~ii:4 ~hit_read:2 ~miss_cycles:12 ~n:1 ~e:1 [ mk_ref () ]
  in
  let ten =
    Sim.run ~ii:4 ~hit_read:2 ~miss_cycles:12 ~n:1 ~e:10 [ mk_ref () ]
  in
  check "10 entries, 10x stall" true
    (ten.Sim.stall_cycles = 10. *. one.Sim.stall_cycles)

let test_sim_mshr_merge () =
  (* two loads of the same line in the same iteration: one fill, the
     second merges (no double stall) *)
  let refs = [ mk_ref ~node:0 ~sched:12 (); mk_ref ~node:1 ~offset:1 ~sched:12 () ] in
  let r = Sim.run ~ii:8 ~hit_read:2 ~miss_cycles:12 ~n:32 ~e:1 refs in
  check "merged fills cause no stall" true (r.Sim.stall_cycles = 0.)

let test_sim_bandwidth_bound () =
  (* 9 distinct streams with stride 32 miss every iteration; with only
     2 MSHRs and a long miss the memory cannot keep up, so even
     prefetched loads stall *)
  let refs =
    List.init 9 (fun k ->
        mk_ref ~node:k ~base:(k * 1000000) ~stride:32 ~sched:20 ())
  in
  let r = Sim.run ~mshrs:2 ~ii:4 ~hit_read:2 ~miss_cycles:20 ~n:256 ~e:1 refs in
  check "bandwidth bound stalls" true (r.Sim.stall_cycles > 0.)

let test_sim_mshr_bound_burst () =
  (* regression: a burst of 12 distinct-line prefetched misses per
     iteration used to push fills past the MSHR bound (the full-queue
     path never retired the slot it was stealing); ~debug asserts
     occupancy <= mshrs after every allocation *)
  let refs =
    List.init 12 (fun k ->
        mk_ref ~node:k ~offset:k ~base:(k * 1000000) ~stride:32 ~sched:40 ())
  in
  let run mshrs =
    Sim.run ~debug:true ~mshrs ~ii:4 ~hit_read:2 ~miss_cycles:40 ~n:64 ~e:1
      refs
  in
  let r8 = run 8 in
  (* 3 misses/cycle of demand against 8 fills per 40 cycles of service:
     the enforced bound makes the burst bandwidth-bound *)
  check "burst stalls under the bound" true (r8.Sim.stall_cycles > 0.);
  check "every access simulated" true (r8.Sim.accesses = 12 * 64);
  (* a tighter bound serializes at least as much *)
  let r2 = run 2 in
  check "fewer mshrs stall at least as much" true
    (r2.Sim.stall_cycles >= r8.Sim.stall_cycles);
  (* enough MSHRs for all 12 streams: the debug invariant still holds *)
  let r16 = run 16 in
  check "wide queue stalls no more than the bound" true
    (r16.Sim.stall_cycles <= r8.Sim.stall_cycles)

let test_sim_store_burst_bounded () =
  (* write-allocate fills respect the bound too (and never stall) *)
  let refs =
    List.init 12 (fun k ->
        mk_ref ~node:k ~is_load:false ~offset:k ~base:(k * 1000000)
          ~stride:32 ~sched:0 ())
  in
  let r =
    Sim.run ~debug:true ~mshrs:4 ~ii:4 ~hit_read:2 ~miss_cycles:40 ~n:64
      ~e:1 refs
  in
  check "store burst never stalls" true (r.Sim.stall_cycles = 0.)

let test_sim_stores_never_stall () =
  let refs =
    List.init 6 (fun k ->
        mk_ref ~node:k ~is_load:false ~base:(k * 1000000) ~stride:32
          ~sched:0 ())
  in
  let r = Sim.run ~ii:2 ~hit_read:2 ~miss_cycles:20 ~n:128 ~e:1 refs in
  check "store misses don't stall" true (r.Sim.stall_cycles = 0.);
  check "store misses counted" true (r.Sim.misses > 0)

let test_sim_iteration_cap () =
  let r =
    Sim.run ~ii:4 ~hit_read:2 ~miss_cycles:12 ~n:1_000_000 ~e:1
      [ mk_ref () ]
  in
  check_int "bounded simulation" Sim.max_sim_iterations
    r.Sim.simulated_iterations

(* ------------------------------------------------------------------ *)
(* Negative addresses *)

let test_cache_negative_addresses () =
  let c = Cache.create ~size_bytes:128 ~line_bytes:32 ~assoc:2 () in
  (* floored: -1 and -32 share line -1; -33 starts line -2 *)
  check_int "line of -1" (-1) (Cache.line_addr c (-1));
  check_int "line of -32" (-1) (Cache.line_addr c (-32));
  check_int "line of -33" (-2) (Cache.line_addr c (-33));
  ignore (Cache.access c (-8));
  check "same negative line hits" true (Cache.access c (-32));
  check "line 0 is a different line" false (Cache.access c 0);
  (* tag -1 is a real tag, not a free way *)
  let c' = Cache.create ~size_bytes:128 ~line_bytes:32 ~assoc:2 () in
  check "cold negative line misses" false (Cache.access c' (-1));
  (* line -1 lies in set 1 (floored), with lines 1 and 3: the third of
     them evicts the least recently used; line 0 (set 0) evicts none *)
  ignore (Cache.access c' 32);
  ignore (Cache.access c' 0);
  check "line -1 survives a set-0 fill" true (Cache.access c' (-1));
  ignore (Cache.access c' 96);
  check "line 1 evicted from set 1" false (Cache.access c' 32);
  check "line 0 untouched" true (Cache.access c' 0)

(* y[i] = y[i-5] + x[i]: the y[i-5] stream starts 40 bytes below y. *)
let test_negative_stream_runs () =
  let open Hcrf_frontend.Ast in
  let loop =
    Hcrf_frontend.Compile.compile
      (make ~name:"lag5" [ store "y" (arr ~off:(-5) "y" +: arr "x") ])
  in
  check "a stream starts below 0" true
    (List.exists (fun (s : Hcrf_ir.Loop.stream) -> s.base < 0)
       loop.Hcrf_ir.Loop.streams);
  let config = Hcrf_model.Presets.published "S64" in
  List.iter
    (fun prefetch ->
      let ctx =
        Hcrf_eval.Runner.Ctx.make
          ~scenario:(Hcrf_eval.Runner.Real { prefetch }) ()
      in
      match Hcrf_eval.Runner.run_loop ~ctx config loop with
      | Some r ->
        check "stalls are finite" true
          (Float.is_finite r.Hcrf_eval.Runner.perf.Hcrf_eval.Metrics.stall_cycles)
      | None -> Alcotest.fail "lag5 did not schedule")
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Flat simulator = list-based reference *)

let same_result (a : Sim.result) (b : Sim.result) =
  a.stall_cycles = b.stall_cycles
  && a.simulated_iterations = b.simulated_iterations
  && a.misses = b.misses && a.accesses = b.accesses

(* Random reference sets: a handful of base lines on both sides of 0
   (so streams collide and fills merge), strides -1024..1024, loads and
   stores, 1..16 MSHRs, and a small cache of 16/32/64-byte lines, 1/2/4
   ways and 1..8 sets, so sets conflict. *)
let gen_case =
  QCheck.Gen.(
    let ref_gen =
      map
        (fun ((node, is_load, off), (sched, line, delta, stride)) ->
          { Sim.node; is_load; issue_offset = off; sched_latency = sched;
            base = (line * 32) + delta; stride })
        (pair
           (triple small_nat bool (int_range 0 12))
           (quad (int_range 0 40) (int_range (-12) 12) (int_range 0 31)
              (int_range (-1024) 1024)))
    in
    pair
      (triple (oneofl [ 16; 32; 64 ]) (oneofl [ 1; 2; 4 ])
         (oneofl [ 1; 2; 4; 8 ]))
      (quad (int_range 1 16) (int_range 1 8)
         (pair (int_range 1 6) (int_range 4 40))
         (list_size (int_range 0 14) ref_gen)))

let print_case ((line_bytes, assoc, sets), (mshrs, ii, (hit, miss), refs)) =
  Fmt.str "line=%d assoc=%d sets=%d mshrs=%d ii=%d hit=%d miss=%d refs=[%s]"
    line_bytes assoc sets mshrs ii hit miss
    (String.concat "; "
       (List.map
          (fun (r : Sim.mem_ref) ->
            Fmt.str "%s@%d lat %d %d+%d*i"
              (if r.is_load then "ld" else "st")
              r.issue_offset r.sched_latency r.base r.stride)
          refs))

let prop_sim_equals_reference =
  QCheck.Test.make ~name:"sim: flat MSHRs = list-based reference"
    ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun ((line_bytes, assoc, sets), (mshrs, ii, (hit_read, miss_cycles), refs))
    ->
      let size_bytes = line_bytes * assoc * sets in
      same_result
        (Sim.run ~debug:true ~mshrs
           ~cache:(Cache.create ~size_bytes ~line_bytes ~assoc ())
           ~ii ~hit_read ~miss_cycles ~n:96 ~e:3 refs)
        (Sim_ref.run ~mshrs ~size_bytes ~line_bytes ~assoc ~ii ~hit_read
           ~miss_cycles ~n:96 ~e:3 refs))

(* Two cases that random search found against wrong rules for retiring
   the pending fills at the next miss instead of at every access: both
   retire by the latest issue time ever seen, the first taking it after
   each iteration's stalls, the second before them.  Issue times fall
   back at each iteration boundary, so the right threshold is the
   latest issue time since the previous miss.  Run as the property
   runs them: n=96, e=3. *)
let pinned_cases =
  let refs l =
    List.mapi
      (fun node (is_load, issue_offset, sched_latency, base, stride) ->
        { Sim.node; is_load; issue_offset; sched_latency; base; stride })
      l
  in
  [
    ( (64, 1, 4),
      ( 5, 8, (1, 27),
        refs
          [ (true, 10, 14, 343, -632); (false, 0, 30, -324, -681);
            (true, 9, 40, 9, -198); (true, 4, 23, -201, -280);
            (false, 4, 31, -272, -526); (true, 2, 38, -218, 131);
            (false, 0, 26, -44, -340); (true, 4, 36, 66, 1001);
            (false, 4, 21, -75, -1013); (true, 9, 28, 161, 539) ] ) );
    ( (16, 4, 2),
      ( 3, 1, (1, 9),
        refs
          [ (true, 12, 13, 29, 576); (true, 4, 12, 297, 845);
            (false, 1, 9, 272, -462) ] ) );
  ]

let test_sim_pinned_retirement () =
  List.iter
    (fun (((line_bytes, assoc, sets), (mshrs, ii, (hit_read, miss_cycles), refs))
           as case) ->
      let size_bytes = line_bytes * assoc * sets in
      let a =
        Sim.run ~debug:true ~mshrs
          ~cache:(Cache.create ~size_bytes ~line_bytes ~assoc ())
          ~ii ~hit_read ~miss_cycles ~n:96 ~e:3 refs
      and b =
        Sim_ref.run ~mshrs ~size_bytes ~line_bytes ~assoc ~ii ~hit_read
          ~miss_cycles ~n:96 ~e:3 refs
      in
      if not (same_result a b) then
        Alcotest.failf "%s: stall %.0f misses %d, reference stall %.0f misses %d"
          (print_case case) a.stall_cycles a.misses b.stall_cycles b.misses)
    pinned_cases

(* Every (loop, Figure-6 config) of a 20-loop workbench under binding
   prefetch: the stall counts the evaluation uses, field by field. *)
let test_sim_equals_reference_workbench () =
  let loops = Hcrf_workload.Suite.generate ~n:20 () in
  List.iter
    (fun (config : Hcrf_machine.Config.t) ->
      List.iter
        (fun (loop : Hcrf_ir.Loop.t) ->
          let override = Prefetch.plan config loop in
          let opts =
            { Hcrf_sched.Engine.default_options with load_override = override }
          in
          match Hcrf_sched.Engine.schedule ~opts config loop.Hcrf_ir.Loop.ddg with
          | Error _ -> ()
          | Ok o ->
            let refs = Hcrf_eval.Runner.mem_refs config loop o ~override in
            let ii = o.Hcrf_sched.Engine.ii
            and hit_read = config.lats.Hcrf_machine.Latencies.mem_read
            and miss_cycles = Hcrf_machine.Config.miss_cycles config
            and n = loop.Hcrf_ir.Loop.trip_count
            and e = loop.Hcrf_ir.Loop.entries in
            let a = Sim.run ~ii ~hit_read ~miss_cycles ~n ~e refs
            and b = Sim_ref.run ~ii ~hit_read ~miss_cycles ~n ~e refs in
            let where =
              Hcrf_ir.Loop.name loop ^ " on " ^ config.Hcrf_machine.Config.name
            in
            check_int (where ^ ": misses") b.misses a.misses;
            check_int (where ^ ": accesses") b.accesses a.accesses;
            check (where ^ ": stall cycles") true
              (a.stall_cycles = b.stall_cycles))
        loops)
    (Hcrf_eval.Experiments.figure6_configs ())

(* The simulated accesses allocate nothing: the minor words of a run do
   not grow with the number of simulated iterations. *)
let test_sim_allocation_flat () =
  let refs =
    List.init 12 (fun k ->
        mk_ref ~node:k ~is_load:(k mod 3 <> 0) ~offset:(k / 2)
          ~base:(k * 4096) ~stride:(8 * (k + 1)) ~sched:(2 + (k mod 2 * 10))
          ())
  in
  let words n =
    let run () =
      ignore
        (Sim.run ~mshrs:4 ~ii:3 ~hit_read:2 ~miss_cycles:20 ~n ~e:1 refs)
    in
    run ();
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  let small = words 64 and large = words 2048 in
  if large > small then
    Alcotest.failf "minor words grow with iterations: %.0f at n=64, %.0f at n=2048"
      small large

(* ------------------------------------------------------------------ *)
(* Prefetch *)

let test_prefetch_plan () =
  let config = Hcrf_model.Presets.published "S64" in
  let l = Hcrf_workload.Kernels.find "daxpy" in
  let plan = Prefetch.plan config l in
  (* daxpy: both loads are outside recurrences -> prefetched with the
     miss latency *)
  Hcrf_ir.Ddg.iter_nodes l.Hcrf_ir.Loop.ddg (fun n ->
      if Hcrf_ir.Op.equal_kind n.kind Hcrf_ir.Op.Load then
        check "load prefetched" true
          (plan n.id = Some (Hcrf_machine.Config.miss_cycles config))
      else check "non-load untouched" true (plan n.id = None))

let test_prefetch_skips_recurrence_loads () =
  let config = Hcrf_model.Presets.published "S64" in
  (* build a memory-carried recurrence: load -> add -> store -> load *)
  let g = Hcrf_ir.Ddg.create () in
  let l = Hcrf_ir.Ddg.add_node g Hcrf_ir.Op.Load in
  let a = Hcrf_ir.Ddg.add_node g Hcrf_ir.Op.Fadd in
  let s = Hcrf_ir.Ddg.add_node g Hcrf_ir.Op.Store in
  Hcrf_ir.Ddg.add_edge g ~dep:Hcrf_ir.Dep.True l a;
  Hcrf_ir.Ddg.add_edge g ~dep:Hcrf_ir.Dep.True a s;
  Hcrf_ir.Ddg.add_edge g ~distance:1 ~dep:Hcrf_ir.Dep.True s l;
  let loop = Hcrf_ir.Loop.make ~trip_count:1000 g in
  let plan = Prefetch.plan config loop in
  check "recurrence load kept at hit latency" true (plan l = None)

let test_prefetch_skips_short_loops () =
  let config = Hcrf_model.Presets.published "S64" in
  let l = Hcrf_workload.Kernels.find "daxpy" in
  let short =
    Hcrf_ir.Loop.make ~trip_count:8 ~entries:l.Hcrf_ir.Loop.entries
      ~streams:l.Hcrf_ir.Loop.streams l.Hcrf_ir.Loop.ddg
  in
  let plan = Prefetch.plan config short in
  Hcrf_ir.Ddg.iter_nodes short.Hcrf_ir.Loop.ddg (fun n ->
      check "short loop: nothing prefetched" true (plan n.id = None))

(* ------------------------------------------------------------------ *)
(* Argument checks *)

(* With no MSHR the first miss used to retire from an empty queue and
   wrap [max_int + miss_cycles] to a negative ready time: 64 misses and
   no stall at all, where one MSHR stalls 2,432 cycles. *)
let test_sim_refuses_no_mshr () =
  let refs = [ mk_ref ~stride:32 () ] in
  let run mshrs =
    Sim.run ~mshrs ~ii:4 ~hit_read:2 ~miss_cycles:40 ~n:64 ~e:1 refs
  in
  check "one mshr stalls" true ((run 1).Sim.stall_cycles > 0.);
  List.iter
    (fun mshrs ->
      Alcotest.check_raises
        (Fmt.str "mshrs:%d refused" mshrs)
        (Invalid_argument "Sim.run: mshrs must be at least 1")
        (fun () -> ignore (run mshrs)))
    [ 0; -1 ]

let test_cache_refuses_bad_geometry () =
  let refused what f =
    match f () with
    | (_ : Cache.t) -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "line 0" (fun () -> Cache.create ~line_bytes:0 ());
  refused "assoc 0" (fun () -> Cache.create ~assoc:0 ());
  refused "size 0" (fun () -> Cache.create ~size_bytes:0 ());
  refused "negative line" (fun () -> Cache.create ~line_bytes:(-32) ());
  refused "negative assoc" (fun () -> Cache.create ~assoc:(-2) ());
  refused "negative size" (fun () -> Cache.create ~size_bytes:(-1024) ());
  refused "line 24" (fun () ->
      Cache.create ~size_bytes:(24 * 2 * 4) ~line_bytes:24 ());
  refused "3 sets" (fun () -> Cache.create ~size_bytes:(32 * 2 * 3) ());
  (* a power-of-two set count with a 3-way cache is fine *)
  let c = Cache.create ~size_bytes:(32 * 3 * 4) ~assoc:3 () in
  check_int "3-way sets" 4 c.Cache.sets

(* Shift and mask are floored division and remainder by powers of two,
   over the whole int range and on both sides of 0: the line of every
   address, and the set and tag it maps to, seen as the hits and misses
   of a run of nearby addresses against the reference's floored-division
   LRU cache. *)
let prop_shift_is_floored_division =
  let gen =
    QCheck.Gen.(
      pair
        (triple (int_range 0 10) (int_range 1 4) (int_range 0 9))
        (pair
           (oneof [ int; int_range (-100_000) 100_000 ])
           (list_size (int_range 1 24) (int_range (-4096) 4096))))
  in
  QCheck.Test.make ~name:"cache: shift/mask = floored division" ~count:2000
    (QCheck.make
       ~print:(fun ((ls, a, ss), (addr, deltas)) ->
         Fmt.str "line=%d assoc=%d sets=%d addr=%d deltas=[%s]" (1 lsl ls) a
           (1 lsl ss) addr
           (String.concat "; " (List.map string_of_int deltas)))
       gen)
    (fun ((ls, assoc, ss), (addr, deltas)) ->
      let line_bytes = 1 lsl ls and sets = 1 lsl ss in
      let size_bytes = line_bytes * assoc * sets in
      let c = Cache.create ~size_bytes ~line_bytes ~assoc ()
      and reference = Sim_ref.lru_cache ~size_bytes ~line_bytes ~assoc in
      List.for_all
        (fun d ->
          let a = addr + d in
          let line = Sim_ref.line_addr ~line_bytes a in
          Cache.line_addr c a = line && Cache.access c a = reference line)
        deltas)

(* The plan as hash membership: loads outside every recurrence of a
   loop longer than the short-trip threshold. *)
let hash_plan (config : Hcrf_machine.Config.t) (loop : Hcrf_ir.Loop.t) =
  let g = loop.Hcrf_ir.Loop.ddg in
  let in_recurrence = Hashtbl.create 16 in
  List.iter
    (List.iter (fun v -> Hashtbl.replace in_recurrence v ()))
    (Hcrf_ir.Scc.recurrences g);
  let prefetched = Hashtbl.create 16 in
  Hcrf_ir.Ddg.iter_nodes g (fun n ->
      if
        Hcrf_ir.Op.equal_kind n.kind Hcrf_ir.Op.Load
        && not (Hashtbl.mem in_recurrence n.id)
      then Hashtbl.replace prefetched n.id ());
  let long = loop.Hcrf_ir.Loop.trip_count > Prefetch.short_trip_threshold in
  fun id ->
    if long && Hashtbl.mem prefetched id then
      Some (Hcrf_machine.Config.miss_cycles config)
    else None

(* Every suite loop and kernel on every Figure-6 configuration: the
   bitmap answers every id of the graph, and a few past its id counter
   and below 0, exactly as hash membership did. *)
let test_prefetch_bitmap_equals_hash () =
  let loops =
    Hcrf_workload.Suite.generate ()
    @ List.map (fun (_, mk) -> mk ()) Hcrf_workload.Kernels.all
  in
  List.iter
    (fun (config : Hcrf_machine.Config.t) ->
      List.iter
        (fun (loop : Hcrf_ir.Loop.t) ->
          let plan = Prefetch.plan config loop
          and reference = hash_plan config loop
          and next = Hcrf_ir.Ddg.next_id loop.Hcrf_ir.Loop.ddg in
          for id = -3 to next + 3 do
            if plan id <> reference id then
              Alcotest.failf "%s on %s: id %d answers %s"
                (Hcrf_ir.Loop.name loop) config.Hcrf_machine.Config.name id
                (match plan id with Some l -> string_of_int l | None -> "None")
          done)
        loops)
    (Hcrf_eval.Experiments.figure6_configs ())

(* Nodes the engine inserts get ids at or past the id counter the plan
   saw; they, and negative ids, are never prefetched. *)
let test_prefetch_ids_outside_bitmap () =
  let config = Hcrf_model.Presets.published "S64" in
  let l = Hcrf_workload.Kernels.find "daxpy" in
  let plan = Prefetch.plan config l in
  let next = Hcrf_ir.Ddg.next_id l.Hcrf_ir.Loop.ddg in
  check "some load prefetched" true
    (List.exists (fun v -> plan v <> None) (Hcrf_ir.Ddg.nodes l.Hcrf_ir.Loop.ddg));
  List.iter
    (fun id -> check (Fmt.str "id %d: None" id) true (plan id = None))
    [ next; next + 1; next + 1000; max_int; -1; min_int ]

let tests =
  [
    ("cache: geometry", `Quick, test_cache_geometry);
    ("cache: unit stride", `Quick, test_cache_unit_stride);
    ("cache: temporal reuse", `Quick, test_cache_temporal_reuse);
    ("cache: lru eviction", `Quick, test_cache_lru_eviction);
    ("cache: counters", `Quick, test_cache_counters);
    ("sim: all hits", `Quick, test_sim_all_hits_no_stall);
    ("sim: hit-scheduled miss", `Quick, test_sim_hit_scheduled_miss_stalls);
    ("sim: prefetched miss", `Quick, test_sim_prefetched_miss_no_stall);
    ("sim: scales with entries", `Quick, test_sim_stall_scales_with_entries);
    ("sim: mshr merge", `Quick, test_sim_mshr_merge);
    ("sim: bandwidth bound", `Quick, test_sim_bandwidth_bound);
    ("sim: mshr bound under burst", `Quick, test_sim_mshr_bound_burst);
    ("sim: store burst bounded", `Quick, test_sim_store_burst_bounded);
    ("sim: stores", `Quick, test_sim_stores_never_stall);
    ("sim: iteration cap", `Quick, test_sim_iteration_cap);
    ("prefetch: plan", `Quick, test_prefetch_plan);
    ("prefetch: recurrence loads", `Quick, test_prefetch_skips_recurrence_loads);
    ("prefetch: short loops", `Quick, test_prefetch_skips_short_loops);
    ("cache: negative addresses", `Quick, test_cache_negative_addresses);
    ("sim: negative stream base", `Quick, test_negative_stream_runs);
    QCheck_alcotest.to_alcotest prop_sim_equals_reference;
    ("sim: workbench = reference", `Quick, test_sim_equals_reference_workbench);
    ("sim: allocation flat in iterations", `Quick, test_sim_allocation_flat);
    ("sim: mshrs < 1 refused", `Quick, test_sim_refuses_no_mshr);
    ("cache: degenerate geometry refused", `Quick,
      test_cache_refuses_bad_geometry);
    QCheck_alcotest.to_alcotest prop_shift_is_floored_division;
    ("prefetch: bitmap = hash membership", `Quick,
      test_prefetch_bitmap_equals_hash);
    ("prefetch: ids outside the bitmap", `Quick,
      test_prefetch_ids_outside_bitmap);
    ("sim: pinned retirement cases = reference", `Quick,
      test_sim_pinned_retirement);
  ]
