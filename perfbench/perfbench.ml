(* The benchmark program.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
       [--serve-exe PATH]
     perfbench.exe --self-test

   Runs one workload, checks its outputs, prints human-readable lines
   and, as the last line of standard output, one JSON object with the
   keys correct / attempted / failed / metrics.  Untraced runs report
   every end-to-end metric, traced runs every per-layer metric (0 for a
   layer the workload does not exercise).  perfbench/run.py builds this
   program and the daemon from source and forwards its arguments. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms");
    ("op_p99_ms", "ms"); ("warm_loops_per_s", "1/s"); ("sum_ii", "count");
    ("exec_mcycles", "Mcycles"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("frontend.compile_ns", "ns"); ("frontend.digest_ns", "ns");
    ("incr.recomputed_per_edit", "count"); ("memo.hit_ratio.frontend", "ratio");
    ("memo.hit_ratio.extract", "ratio"); ("memo.hit_ratio.sched", "ratio");
    ("memo.hit_ratio.metric", "ratio"); ("memo.entries", "count");
    ("memo.entries_per_edit", "count"); ("cache.key_ns", "ns");
    ("cache.key_share", "ratio"); ("cache.find_ns", "ns");
    ("cache.hit_ratio", "ratio"); ("runner.compute_ns", "ns");
    ("runner.replay_ns", "ns"); ("sched.mii_ns", "ns"); ("sched.order_ns", "ns");
    ("sched.order_share", "ratio"); ("sched.engine_ns", "ns");
    ("sched.phase.schedule_ns", "ns"); ("sched.phase.regalloc_ns", "ns");
    ("sched.ii_tries_per_loop", "count"); ("sched.ii_try_events", "count");
    ("sched.eject_events", "count"); ("sched.place_events", "count");
    ("sched.useful_eject_ratio", "ratio"); ("sched.useful_place_ratio", "ratio");
    ("sched.spills", "count"); ("sched.comm_inserted", "count");
    ("memsim.ns", "ns"); ("memsim.share", "ratio"); ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns"); ("wire.frame_bytes", "bytes");
    ("tiers.lru_hit_ns", "ns"); ("tiers.tier2_hit_ns", "ns");
    ("tiers.computed_ns", "ns"); ("lru.hit_ratio", "ratio");
    ("tier2.hit_ratio", "ratio"); ("serve.computed", "count");
    ("serve.coalesced", "count"); ("serve.outside_ns", "ns");
    ("gc.minor_mb_per_op", "MB"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB"); ("trace.overhead_pct", "%");
    ("host.probe_ns", "ns") ]

let workloads =
  [ "workbench_ideal"; "workbench_prefetch"; "edit_session"; "serve_mixed" ]

(* Keep exactly the registered metrics, in registry order, each with
   its registered unit; a missing end-to-end metric breaks the run. *)
let finish r ~traced =
  let pick (name, unit_) =
    (* r.metrics is newest first *)
    match List.find_opt (fun m -> m.name = name) r.metrics with
    | Some m -> { m with unit_ }
    | None ->
      if not traced then insane r "metric %s was not measured" name;
      { name; value = 0.; unit_ }
  in
  r.metrics <- List.rev_map pick (if traced then per_layer else end_to_end);
  List.iter
    (fun m -> note "%-26s %.6g %s" m.name m.value m.unit_)
    (List.rev r.metrics);
  print_endline (json_of_result r)

(* The correctness gate must be able to fire: with the engine's
   resource check disabled, schedules must fail validation; with it
   enabled, nothing may fail. *)
let self_test () =
  let sched = Hcrf_sched.Schedule.fault in
  sched := Some Hcrf_sched.Schedule.Lax_resources;
  let armed, n1 =
    Fun.protect ~finally:(fun () -> sched := None) (fun () ->
        Workbench.gate_failures ~seed:1)
  in
  let clean, n2 = Workbench.gate_failures ~seed:1 in
  Printf.printf "self-test: fault armed: %d/%d failed; disarmed: %d/%d failed\n"
    armed n1 clean n2;
  if armed > 0 && clean = 0 then print_endline "self-test: ok"
  else begin
    print_endline "self-test: FAILED";
    exit 1
  end

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--serve-exe PATH] | --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-test" ] then self_test ()
  else begin
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" and seed = int "seed" in
    let seconds = float_of_int (int "seconds") in
    let traced = int "trace" <> 0 in
    if not (List.mem workload workloads) then usage ();
    (* the library's warnings (a loop with no schedule, ...) go to stderr *)
    Logs.set_reporter (Logs_fmt.reporter ~dst:Format.err_formatter ());
    Logs.set_level (Some Logs.Warning);
    let r = fresh_result () in
    note "perfbench: workload=%s seed=%d seconds=%g trace=%b" workload seed
      seconds traced;
    (match workload with
    | "workbench_ideal" -> Workbench.run Workbench.Ideal ~seed ~seconds ~traced r
    | "workbench_prefetch" ->
      Workbench.run Workbench.Prefetch ~seed ~seconds ~traced r
    | "edit_session" -> Edit.run ~seed ~seconds ~traced r
    | _ -> Serve.run ~exe:(get "serve-exe") ~seed ~seconds ~traced r);
    if traced then begin
      (* the host's speed, to compare per-layer times across runs *)
      let sp = speed () in
      for _ = 1 to 10 do probe sp done;
      put r "host.probe_ns" "ns" (ns_of_s (probe_s sp))
    end;
    finish r ~traced
  end
