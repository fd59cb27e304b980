(* Tests for the incremental pipeline (lib/incr + Runner.run_pipeline +
   Memo): the dirty-cone property (one edited kernel recomputes exactly
   its own four stages, everything else replays), byte-identity of
   incremental and cold evaluation at several job counts, the no-edit
   fixpoint, and stage-memo persistence (round-trip and corruption). *)

open Hcrf_eval
module Pipeline = Hcrf_incr.Pipeline
module Progs = Hcrf_incr.Progs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config = Hcrf_model.Presets.published "4C32"

let scrub perfs =
  List.map
    (Option.map (fun (p : Metrics.loop_perf) ->
         { p with Metrics.sched_seconds = 0. }))
    perfs

let bytes_of perfs = Marshal.to_string (scrub perfs) []

(* a pipeline with a fresh in-memory memo *)
let fresh_pipe ?(jobs = 1) () =
  let ctx = Runner.Ctx.make ~memo:(Memo.create ()) ~jobs () in
  Pipeline.create ~ctx config

(* cold evaluation of [prog]: fresh context, no memo, no cache *)
let cold_eval ?(jobs = 1) prog =
  let pipe = Pipeline.create ~ctx:(Runner.Ctx.make ~jobs ()) config in
  let perfs, _, _ = Pipeline.eval pipe prog in
  perfs

(* ------------------------------------------------------------------ *)
(* The dirty-cone property *)

let prop_dirty_cone =
  QCheck.Test.make ~name:"one edit dirties exactly its own cone" ~count:25
    QCheck.(pair (int_range 2 9) (pair (int_range 0 30) (int_range 1 4)))
    (fun (n, (kernel, round)) ->
      let kernel = kernel mod n in
      let pipe = fresh_pipe () in
      let prog = Progs.program ~n in
      let _ = Pipeline.eval pipe prog in
      let prog' = Progs.edit ~round ~kernel prog in
      let perfs, _, stats = Pipeline.eval pipe prog' in
      let s = stats.Pipeline.sched in
      (* the edited kernel recomputes frontend, sched and metric;
         every other kernel replays all three stages *)
      stats.Pipeline.frontend_recomputed = 1
      && stats.Pipeline.frontend_hits = n - 1
      && s.Runner.computed = 1
      && s.Runner.store_hits = n - 1
      && s.Runner.metric_hits = n - 1
      && s.Runner.dirty = [ (List.nth prog' kernel).Hcrf_frontend.Ast.name ]
      (* and the replayed results are byte-identical to a cold run *)
      && String.equal (bytes_of perfs) (bytes_of (cold_eval prog')))

(* an edit under a different engine configuration dirties the schedule
   stage of every kernel but replays every frontend stage: the compiled
   loop is config-independent, the schedule key is not *)
let test_config_change_cone () =
  let n = 6 in
  let prog = Progs.program ~n in
  let memo = Memo.create () in
  let eval_with config jobs =
    let ctx = Runner.Ctx.make ~memo ~jobs () in
    let pipe = Pipeline.create ~ctx config in
    let _, _, stats = Pipeline.eval pipe prog in
    stats
  in
  let _ = eval_with config 1 in
  let stats = eval_with (Hcrf_model.Presets.published "S64") 1 in
  check_int "frontend replays across configs" n stats.Pipeline.frontend_hits;
  check_int "every schedule recomputes" n
    stats.Pipeline.sched.Runner.computed;
  check_int "no metric hit across configs" 0
    stats.Pipeline.sched.Runner.metric_hits

(* ------------------------------------------------------------------ *)
(* Golden edit script: incremental == cold, at jobs 1 and 4 *)

let run_session ?(pipe_of = fun ~jobs -> fresh_pipe ~jobs ()) ~jobs () =
  let pipe = pipe_of ~jobs in
  let prog = ref (Progs.program ~n:12) in
  let _, _, cold = Pipeline.eval pipe !prog in
  let per_edit = ref [] in
  for round = 1 to 3 do
    prog := Progs.edit ~round ~kernel:(round * 7 mod 12) !prog;
    let perfs, _, stats = Pipeline.eval pipe !prog in
    per_edit := (perfs, stats) :: !per_edit
  done;
  (!prog, cold, List.rev !per_edit)

let test_golden_session () =
  let prog1, cold1, edits1 = run_session ~jobs:1 () in
  let prog4, cold4, edits4 = run_session ~jobs:4 () in
  check "programs agree" true (prog1 = prog4);
  check "cold stats identical at jobs 1 and 4" true
    (cold1 = cold4);
  List.iter2
    (fun (p1, s1) (p4, s4) ->
      check "per-edit stats identical at jobs 1 and 4" true
        (s1 = s4);
      check "per-edit perfs byte-identical at jobs 1 and 4" true
        (String.equal (bytes_of p1) (bytes_of p4)))
    edits1 edits4;
  List.iteri
    (fun i ((_, s) : Metrics.loop_perf option list * Pipeline.eval_stats) ->
      check_int
        (Fmt.str "edit %d recomputes exactly one schedule" (i + 1))
        1 s.Pipeline.sched.Runner.computed)
    edits1;
  (* the final incremental metrics are byte-identical to a cold
     evaluation of the final program, serial and parallel alike *)
  let final1, _ = List.nth edits1 2 and final4, _ = List.nth edits4 2 in
  let cold_bytes = bytes_of (cold_eval ~jobs:1 prog1) in
  check "incremental bytes = cold bytes (jobs 1)" true
    (String.equal (bytes_of final1) cold_bytes);
  check "incremental bytes = cold bytes (jobs 4)" true
    (String.equal (bytes_of final4) cold_bytes)

(* One count, two readers: the memo's stage counters are read from the
   same [Incr] notes the traced session commits. *)
let test_stage_stats_are_trace_counts () =
  let memo = Memo.create () in
  let counters = Hcrf_obs.Counters.create () in
  let tracer = Hcrf_obs.Tracer.make [ Hcrf_obs.Tracer.Counters counters ] in
  let pipe_of ~jobs =
    Pipeline.create ~ctx:(Runner.Ctx.make ~memo ~jobs ~tracer ()) config
  in
  let _ = run_session ~pipe_of ~jobs:1 () in
  let traced =
    List.filter_map
      (fun (k, n) ->
        match String.split_on_char '.' k with
        | [ "incr"; stage; "hit" ] -> Some (stage ^ ".hits", n)
        | [ "incr"; stage; "miss" ] -> Some (stage ^ ".misses", n)
        | _ -> None)
      (Hcrf_obs.Counters.counts counters)
    |> List.sort compare
  in
  check "every stage was looked up" true (List.length traced >= 4);
  Alcotest.(check (list (pair string int)))
    "stage_stats = traced incr.<stage>.hit/miss counts" traced
    (Memo.stage_stats memo)

let test_no_edit_fixpoint () =
  let pipe = fresh_pipe () in
  let prog = Progs.program ~n:8 in
  let perfs0, _, _ = Pipeline.eval pipe prog in
  let perfs1, _, stats = Pipeline.eval pipe prog in
  check_int "nothing recompiles" 0 stats.Pipeline.frontend_recomputed;
  check_int "nothing reschedules" 0 stats.Pipeline.sched.Runner.computed;
  check "no dirty loops" true (stats.Pipeline.sched.Runner.dirty = []);
  check_int "every metric replays" 8 stats.Pipeline.sched.Runner.metric_hits;
  check "replayed perfs byte-identical" true
    (String.equal (bytes_of perfs0) (bytes_of perfs1))

(* ------------------------------------------------------------------ *)
(* Persistence *)

(* the memo's directory holds memo.v4 and the schedule store's shard
   subdirectories *)
let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_tmp_dir f =
  let dir = Filename.temp_file "hcrf-incr-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_memo_persistence () =
  with_tmp_dir @@ fun dir ->
  let prog = Progs.program ~n:5 in
  let saved =
    let memo = Memo.create ~dir () in
    let ctx = Runner.Ctx.make ~memo () in
    let _ = Pipeline.eval (Pipeline.create ~ctx config) prog in
    check "save succeeds" true (Memo.save memo);
    Memo.length memo
  in
  check "something was memoized" true (saved > 0);
  (* a second process: reload the memo and replay everything *)
  let memo = Memo.create ~dir () in
  check_int "reloaded table has every entry" saved (Memo.length memo);
  let ctx = Runner.Ctx.make ~memo () in
  let perfs, _, stats = Pipeline.eval (Pipeline.create ~ctx config) prog in
  check_int "warm start recompiles nothing" 0
    stats.Pipeline.frontend_recomputed;
  check_int "warm start reschedules nothing" 0
    stats.Pipeline.sched.Runner.computed;
  check "warm-start perfs = cold perfs" true
    (String.equal (bytes_of perfs) (bytes_of (cold_eval prog)))

let test_memo_corruption () =
  with_tmp_dir @@ fun dir ->
  let memo = Memo.create ~dir () in
  Memo.add memo ~stage:Hcrf_obs.Event.Metric "k"
    (Memo.Perf_v None);
  check "save succeeds" true (Memo.save memo);
  check_int "saved entry reloads" 1 (Memo.length (Memo.create ~dir ()));
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  let current = Filename.concat dir "memo.v4" in
  let intact = In_channel.with_open_bin current In_channel.input_all in
  write "memo.v4" "hcrf-memo 4\ngarbage follows the magic";
  let reloaded = Memo.create ~dir () in
  check_int "corrupt file discarded, empty memo" 0 (Memo.length reloaded);
  (* and truncating below the magic must not raise either *)
  write "memo.v4" "x";
  check_int "truncated file discarded" 0 (Memo.length (Memo.create ~dir ()));
  (* files of older versions are stale: warned about, never read — a
     v1 file held schedule entries, a v2 file MD5-chain loop
     fingerprints, a v3 file rank-based WL ones and extract-stage
     values (here v2 and v3 even carry an intact table) *)
  Sys.remove current;
  write "memo.v1" "hcrf-memo 1\nwhatever a v1 writer left";
  write "memo.v2" intact;
  write "memo.v3" intact;
  check_int "v1, v2 and v3 files ignored" 0
    (Memo.length (Memo.create ~dir ()));
  (* a file under the current name that carries the v3 magic is
     refused by the seal before anything is unmarshalled *)
  write "memo.v4"
    ("hcrf-memo 3\n"
    ^ String.sub intact (String.length "hcrf-memo 4\n")
        (String.length intact - String.length "hcrf-memo 4\n"));
  check_int "v3 magic under the v4 name ignored" 0
    (Memo.length (Memo.create ~dir ()))

(* ------------------------------------------------------------------ *)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_dirty_cone;
    ("config change dirties schedules only", `Quick, test_config_change_cone);
    ("golden 3-edit session, jobs 1 = jobs 4 = cold", `Slow,
     test_golden_session);
    ("memo stage counts equal the traced incr counts", `Quick,
     test_stage_stats_are_trace_counts);
    ("no-edit evaluation is a fixpoint", `Quick, test_no_edit_fixpoint);
    ("memo persistence round-trip", `Quick, test_memo_persistence);
    ("memo corruption discarded with a warning", `Quick,
     test_memo_corruption);
  ]
