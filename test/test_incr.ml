(* Tests for the incremental pipeline (lib/incr + Runner.run_pipeline +
   Memo): the dirty-cone property (one edited kernel recompiles and
   reschedules, everything else replays), byte-identity of incremental
   and cold evaluation at several job counts, the no-edit fixpoint, the
   memo's shared live loops, and a fresh memo replaying a disk cache's
   schedules. *)

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

(* No_sharing: entries loaded from disk box their floats apart where a
   cold run shares one box; equal values must give equal bytes *)
let bytes_of perfs = Marshal.to_string (scrub perfs) [ Marshal.No_sharing ]

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
      (* the edited kernel recompiles and reschedules; every other
         kernel replays its compiled loop and its schedule *)
      stats.Pipeline.frontend_recomputed = 1
      && stats.Pipeline.frontend_hits = n - 1
      && s.Runner.computed = 1
      && s.Runner.store_hits = n - 1
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
    stats.Pipeline.sched.Runner.computed

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
  check "both lookup outcomes were noted" true
    (List.map fst traced = [ "frontend.hits"; "frontend.misses" ]);
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
  check_int "every kernel replays its loop" 8 stats.Pipeline.frontend_hits;
  check_int "every schedule replays" 8 stats.Pipeline.sched.Runner.store_hits;
  check "replayed perfs byte-identical" true
    (String.equal (bytes_of perfs0) (bytes_of perfs1))

(* The memo keeps one live loop per kernel digest and nothing else: a
   3-edit session adds one entry per edit, an untouched kernel gets back
   the very loop its first compile stored, and that loop still equals a
   fresh compile — scheduling, prefetch planning and cache simulation
   over it mutated nothing. *)
let test_memo_shares_live_loops () =
  let memo = Memo.create () in
  let ctx =
    Runner.Ctx.make ~scenario:(Runner.Real { prefetch = true }) ~memo ()
  in
  let pipe = Pipeline.create ~ctx config in
  let prog0 = Progs.program ~n:12 in
  let _ = Pipeline.eval pipe prog0 in
  let stored kernel =
    fst
      (Memo.find_or_compile memo ~trace:Hcrf_obs.Trace.off
         (Hcrf_frontend.Ast.digest kernel) (fun () ->
           Alcotest.failf "%s is not in the memo" kernel.Hcrf_frontend.Ast.name))
  in
  let before = List.map stored prog0 in
  let prog = ref prog0 in
  for round = 1 to 3 do
    let entries = Memo.length memo in
    prog := Progs.edit ~round ~kernel:(round * 7 mod 12) !prog;
    let _ = Pipeline.eval pipe !prog in
    check_int (Fmt.str "edit %d adds one memo entry" round) (entries + 1)
      (Memo.length memo)
  done;
  let untouched = ref 0 in
  List.iter2
    (fun (kernel, loop) kernel' ->
      if kernel == kernel' then begin
        incr untouched;
        let name = kernel.Hcrf_frontend.Ast.name in
        check (name ^ ": the same live loop") true (stored kernel == loop);
        let fresh = Hcrf_frontend.Compile.compile kernel in
        check (name ^ ": fingerprint of a fresh compile") true
          (Hcrf_cache.Fingerprint.equal
             (Hcrf_cache.Fingerprint.of_loop loop)
             (Hcrf_cache.Fingerprint.of_loop fresh));
        check (name ^ ": repr of a fresh compile") true
          (Hcrf_ir.Loop.to_repr loop = Hcrf_ir.Loop.to_repr fresh)
      end)
    (List.combine prog0 before) !prog;
  check_int "nine kernels untouched" 9 !untouched;
  (* every stored loop's carried key, edited kernels included, is the
     one its rebuilt graph computes afresh, and a fresh compile's *)
  List.iter
    (fun kernel ->
      let name = kernel.Hcrf_frontend.Ast.name in
      let loop = stored kernel in
      let fp = Hcrf_cache.Fingerprint.of_loop loop in
      let fresh = Hcrf_frontend.Compile.compile kernel in
      check (name ^ ": carried key is its graph's") true
        (Hcrf_cache.Fingerprint.equal fp
           (Hcrf_cache.Fingerprint.of_loop
              Hcrf_ir.Loop.(of_repr (to_repr loop))));
      check (name ^ ": carried key is a fresh compile's") true
        (Hcrf_cache.Fingerprint.equal fp
           (Hcrf_cache.Fingerprint.of_loop fresh)))
    !prog

(* ------------------------------------------------------------------ *)
(* Persistence: schedules persist in the store shards, the memo does not *)

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

(* a second process, modelled by fresh memos and caches over one
   directory: every schedule replays from the store shards, and the
   replayed metrics equal a cold evaluation's *)
let test_memo_over_disk_cache () =
  with_tmp_dir @@ fun dir ->
  let prog = Progs.program ~n:5 in
  let eval () =
    let ctx =
      Runner.Ctx.make ~cache:(Hcrf_cache.Cache.create ~dir ())
        ~memo:(Memo.create ()) ()
    in
    Pipeline.eval (Pipeline.create ~ctx config) prog
  in
  let _, _, first = eval () in
  check_int "first process schedules every loop" 5
    first.Pipeline.sched.Runner.computed;
  let perfs, _, stats = eval () in
  check_int "fresh memo recompiles every kernel" 5
    stats.Pipeline.frontend_recomputed;
  check_int "fresh memo reschedules nothing" 0
    stats.Pipeline.sched.Runner.computed;
  check_int "every schedule is a store hit" 5
    stats.Pipeline.sched.Runner.store_hits;
  check "replayed perfs = cold perfs" true
    (String.equal (bytes_of perfs) (bytes_of (cold_eval prog)))

(* ------------------------------------------------------------------ *)
(* Reuse: a kernel physically equal to the last evaluation's at its
   position keeps its perfs, with no digest, key or lookup *)

type step =
  | Edit of int * int  (** [Progs.edit] round, kernel *)
  | Rev
  | Drop of int
  | Dup of int
  | Copy of int  (** a structurally equal fresh copy *)

let pp_step ppf = function
  | Edit (round, k) -> Fmt.pf ppf "edit %d@%d" round k
  | Rev -> Fmt.string ppf "rev"
  | Drop k -> Fmt.pf ppf "drop %d" k
  | Dup k -> Fmt.pf ppf "dup %d" k
  | Copy k -> Fmt.pf ppf "copy %d" k

let apply prog step =
  let n = List.length prog in
  let at k f =
    List.concat (List.mapi (fun i x -> if i = k mod n then f x else [ x ]) prog)
  in
  match step with
  | Edit (round, kernel) -> Progs.edit ~round ~kernel prog
  | Rev -> List.rev prog
  | Drop k -> if n <= 1 then prog else at k (fun _ -> [])
  | Dup k -> at k (fun x -> [ x; x ])
  | Copy k ->
    at k (fun (x : Hcrf_frontend.Ast.t) ->
        [ Marshal.from_string (Marshal.to_string x []) 0 ])

let arb_session =
  let open QCheck.Gen in
  let step =
    frequency
      [ (3, map2 (fun r k -> Edit (r, k)) (int_range 1 50) (int_bound 20));
        (1, return Rev); (1, map (fun k -> Drop k) (int_bound 20));
        (1, map (fun k -> Dup k) (int_bound 20));
        (2, map (fun k -> Copy k) (int_bound 20)) ]
  in
  QCheck.make ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (n, steps) ->
      Fmt.str "n=%d [%a]" n Fmt.(list ~sep:semi pp_step) steps)
    (pair (int_range 2 10) (list_size (int_range 1 6) step))

let agg_bytes (a : Metrics.aggregate) =
  Marshal.to_string { a with Metrics.sched_seconds = 0. } [ Marshal.No_sharing ]

(* Two pipelines on two configurations share one memo; after every
   step each one's perfs and aggregate equal a cold evaluation's *)
let prop_reuse_is_sound =
  QCheck.Test.make ~name:"reuse by identity = cold, any edit script"
    ~count:30 arb_session (fun (n, steps) ->
      let memo = Memo.create () in
      let pipes =
        List.map
          (fun c ->
            (c, Pipeline.create ~ctx:(Runner.Ctx.make ~memo ()) c))
          [ config; Hcrf_model.Presets.published "S64" ]
      in
      let same prog =
        List.for_all
          (fun (c, pipe) ->
            let perfs, agg, _ = Pipeline.eval pipe prog in
            let cold_perfs, cold_agg, _ =
              Pipeline.eval (Pipeline.create c) prog
            in
            String.equal (bytes_of perfs) (bytes_of cold_perfs)
            && String.equal (agg_bytes agg) (agg_bytes cold_agg))
          pipes
      in
      let prog = ref (Progs.program ~n) in
      same !prog
      && List.for_all
           (fun step ->
             prog := apply !prog step;
             same !prog)
           steps)

(* What reuse skips is really skipped: a no-edit evaluation of 120
   kernels makes no store lookup and allocates little, an edit makes
   one lookup, and both report the counts a full walk would *)
let test_reuse_skips_lookups () =
  let memo = Memo.create () in
  let pipe = Pipeline.create ~ctx:(Runner.Ctx.make ~memo ()) config in
  let prog = Progs.program ~n:120 in
  let lookups () =
    let s = Hcrf_cache.Cache.stats (Memo.cache memo) in
    s.Hcrf_cache.Cache.hits + s.Hcrf_cache.Cache.misses
  in
  let expect ~edited =
    let dirty = Option.to_list edited in
    let k = List.length dirty in
    { Pipeline.kernels = 120; frontend_hits = 120 - k;
      frontend_recomputed = k;
      sched =
        { Runner.total = 120; store_hits = 120 - k; computed = k;
          coalesced = 0; dirty } }
  in
  let _ = Pipeline.eval pipe prog in
  let before = lookups () in
  let w0 = Gc.minor_words () in
  let _, _, again = Pipeline.eval pipe prog in
  let words = Gc.minor_words () -. w0 in
  check_int "a no-edit evaluation makes no store lookup" before (lookups ());
  check "no-edit stats as a full walk's" true (again = expect ~edited:None);
  (* a full walk, which digests and looks up every kernel, allocates
     about 27.5k words here *)
  check (Fmt.str "no-edit evaluation allocates %.0f words < 12000" words)
    true (words < 12000.);
  let prog' = Progs.edit ~round:1 ~kernel:17 prog in
  let _, _, edit = Pipeline.eval pipe prog' in
  check_int "an edit makes exactly one store lookup" (before + 1) (lookups ());
  check "edit stats as a full walk's" true
    (edit = expect ~edited:(Some "k017"))

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
    ("memo shares live loops, one entry per edit", `Quick,
     test_memo_shares_live_loops);
    ("fresh memo replays a disk cache", `Quick, test_memo_over_disk_cache);
    QCheck_alcotest.to_alcotest prop_reuse_is_sound;
    ("reuse skips the untouched kernels' lookups", `Quick,
     test_reuse_skips_lookups);
  ]
