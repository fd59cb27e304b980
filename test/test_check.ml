(* Tests for the differential fuzzing subsystem: campaign determinism,
   fault injection with shrinking, reproducer round-trips, corpus
   replay (with and without a shared cache, with and without the
   injected fault), the rendering of loops as frontend programs, and
   the id-sensitive cache key that fuzzing motivated. *)

open Hcrf_ir
open Hcrf_check
module Ev = Hcrf_obs.Event
module Cache = Hcrf_cache.Cache
module Fingerprint = Hcrf_cache.Fingerprint
module Runner = Hcrf_eval.Runner
module Schedule = Hcrf_sched.Schedule

let vname = Ev.fuzz_verdict_name

(* A clean campaign is deterministic across worker counts and finds no
   oracle failures: pp_report at jobs=1 and jobs=2 must be
   byte-identical, failure-free, and account for every case. *)
let test_campaign_deterministic () =
  let report jobs =
    let ctx = Runner.Ctx.make ~jobs () in
    Check.campaign ~ctx ~shrink:true ~seed:5 ~cases:18 ()
  in
  let ra = report 1 and rb = report 2 in
  let sa = Fmt.str "%a" Check.pp_report ra in
  let sb = Fmt.str "%a" Check.pp_report rb in
  Alcotest.(check string) "jobs=1 and jobs=2 reports byte-identical" sa sb;
  Alcotest.(check int) "no oracle failures" 0 (List.length ra.Check.r_failures);
  Alcotest.(check int) "every case accounted for" 18
    (List.fold_left (fun acc (_, n) -> acc + n) 0 ra.Check.r_counts)

(* The Lax_resources fault makes the scheduler ignore resource capacity;
   the campaign must catch it as invalid schedules and shrink each
   failure to a tiny witness.  On a 2-FU machine an oversubscription
   witness needs at most FUs+1 independent operations, so the shrunk
   loops must be small (acceptance bound: <= 8 nodes). *)
let test_fault_injection_caught () =
  Fun.protect
    ~finally:(fun () -> Schedule.fault := None)
    (fun () ->
      Schedule.fault := Some Schedule.Lax_resources;
      let presets =
        [ ("S32",
            Hcrf_model.Presets.of_notation ~n_fus:2 ~n_mem_ports:2 "S32") ]
      in
      let r =
        Check.campaign ~config_presets:presets ~shrink:true
          ~max_shrink_evals:150 ~seed:3 ~cases:6 ()
      in
      Alcotest.(check bool) "fault detected" true (r.Check.r_failures <> []);
      List.iter
        (fun (f : Check.failure) ->
          Alcotest.(check string)
            (Fmt.str "case %d caught as invalid" f.Check.f_case)
            "invalid_schedule" (vname f.Check.f_kind);
          Alcotest.(check bool)
            (Fmt.str "case %d shrunk to <= 8 nodes (got %d)" f.Check.f_case
               f.Check.f_nodes)
            true (f.Check.f_nodes <= 8))
        r.Check.r_failures)

(* Reproducer files are lossless: a generated loop survives
   to_string/of_string with identical graph, streams and metadata. *)
let test_repro_roundtrip () =
  let rng = Hcrf_workload.Rng.create ~seed:97 in
  let loop = Hcrf_workload.Genloop.generate ~rng ~index:4 () in
  let r =
    {
      Repro.seed = 97;
      case = 4;
      params = "small";
      config = "2C32S32";
      n_fus = 8;
      n_mem_ports = 4;
      lats =
        (Hcrf_model.Presets.of_notation "2C32S32").Hcrf_machine.Config.lats;
      options = "nobt";
      verdict = Ev.Exec_mismatch;
      detail = "synthetic round-trip fixture";
      loop;
    }
  in
  match Repro.of_string (Repro.to_string r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check bool) "graph identical" true
      (Ddg.to_repr loop.Loop.ddg = Ddg.to_repr r'.Repro.loop.Loop.ddg);
    Alcotest.(check bool) "streams identical" true
      (loop.Loop.streams = r'.Repro.loop.Loop.streams);
    Alcotest.(check int) "trip count" loop.Loop.trip_count
      r'.Repro.loop.Loop.trip_count;
    Alcotest.(check int) "entries" loop.Loop.entries r'.Repro.loop.Loop.entries;
    Alcotest.(check bool) "metadata identical" true
      ({ r with loop } = { r' with Repro.loop })

(* A malformed reproducer must be rejected, not half-parsed. *)
let test_repro_strict_parser () =
  (match Repro.of_string "hcrf-repro 1\nbogus 42\n" with
  | Ok _ -> Alcotest.fail "unknown keyword accepted"
  | Error _ -> ());
  match Repro.of_string "hcrf-repro 99\nseed 1\n" with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error _ -> ()

(* The graph and the scheduler size their per-node tables by the largest
   node id, so a reproducer whose ids are not compact is refused at
   load, before its graph is built: here one corpus file with a node
   renumbered to 2,000,000, and to 2^40.  Every committed reproducer is
   compact and still loads. *)
let test_repro_refuses_sparse_ids () =
  let in_test d = if Sys.file_exists d then d else Filename.concat "test" d in
  let files =
    Repro.corpus_files (in_test "corpus")
    @ Repro.corpus_files (in_test "gap_corpus")
  in
  Alcotest.(check int) "committed reproducers" 10 (List.length files);
  List.iter
    (fun path ->
      match Repro.load path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" (Filename.basename path) e)
    files;
  let text =
    In_channel.with_open_bin
      (Filename.concat (in_test "corpus") "case0003-invalid_schedule.repro")
      In_channel.input_all
  in
  List.iter
    (fun id ->
      let renumber line =
        match String.split_on_char ' ' line with
        | [ "next"; "20"; inv ] -> Fmt.str "next %d %s" (id + 1) inv
        | [ "node"; "4"; kind ] -> Fmt.str "node %d %s" id kind
        | "stream" :: "4" :: rest ->
          String.concat " " ("stream" :: string_of_int id :: rest)
        | _ -> line
      in
      let sparse =
        String.concat "\n" (List.map renumber (String.split_on_char '\n' text))
      in
      Alcotest.(check bool) "the edit took" true (sparse <> text);
      match Repro.of_string sparse with
      | Ok _ -> Alcotest.failf "node %d accepted" id
      | Error e ->
        Alcotest.(check string) "refused" "node ids are not compact" e)
    [ 2_000_000; 1 lsl 40 ]

(* A reproducer of daxpy whose first load carries a second stream
   fails to load, like any loop [Loop.make] refuses; the same file
   without that line loads. *)
let test_repro_refuses_two_streams_on_one_op () =
  let in_test d = if Sys.file_exists d then d else Filename.concat "test" d in
  let base =
    match
      Repro.load
        (Filename.concat (in_test "corpus") "case0003-invalid_schedule.repro")
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let daxpy = Hcrf_workload.Kernels.daxpy () in
  let first = List.hd daxpy.Loop.streams in
  let text = Repro.to_string { base with Repro.loop = daxpy } in
  let line (s : Loop.stream) =
    Fmt.str "stream %d %d %d" s.Loop.op s.Loop.base s.Loop.stride
  in
  let extra =
    line { first with Loop.base = first.Loop.base + 28_680; stride = 0 }
  in
  let doubled =
    String.concat "\n"
      (List.concat_map
         (fun l -> if l = line first then [ l; extra ] else [ l ])
         (String.split_on_char '\n' text))
  in
  Alcotest.(check bool) "the edit took" true (doubled <> text);
  let load text =
    let path = Filename.temp_file "hcrf" ".repro" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Repro.load path
  in
  (match load text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "daxpy reproducer: %s" e);
  match load doubled with
  | Ok _ -> Alcotest.fail "two streams on one op accepted"
  | Error e ->
    Alcotest.(check string) "refused"
      (Printexc.to_string (Invalid_argument "Loop.make: two streams on one op"))
      e

(* The committed corpus holds shrunk witnesses of the Lax_resources
   fault.  With the fault armed, replaying must reproduce each file's
   recorded verdict, with and without a shared schedule cache (the
   cache can never mask a divergence); with the fault off, the same
   loops schedule cleanly end to end. *)
let test_corpus_replay () =
  (* cwd is _build/default/test under `dune runtest` (the glob_files dep
     materialises the corpus there) but the workspace root under
     `dune exec test/test_main.exe` *)
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let replay ?cache () =
    match Check.replay_corpus ?cache dir with
    | Error e -> Alcotest.fail e
    | Ok results -> results
  in
  Fun.protect
    ~finally:(fun () -> Schedule.fault := None)
    (fun () ->
      Schedule.fault := Some Schedule.Lax_resources;
      let cold = replay () in
      Alcotest.(check bool) "corpus non-empty" true (cold <> []);
      List.iter
        (fun (path, (r : Repro.t), (v : Check.verdict)) ->
          Alcotest.(check string)
            (Filename.basename path ^ ": recorded verdict reproduced")
            (vname r.Repro.verdict) (vname v.Check.kind))
        cold;
      let cached = replay ~cache:(Cache.create ()) () in
      List.iter2
        (fun (path, _, (v : Check.verdict)) (_, _, (v' : Check.verdict)) ->
          Alcotest.(check string)
            (Filename.basename path ^ ": cache-independent verdict")
            (vname v.Check.kind) (vname v'.Check.kind))
        cold cached);
  List.iter
    (fun (path, _, (v : Check.verdict)) ->
      Alcotest.(check string)
        (Filename.basename path ^ ": passes without the fault")
        "pass" (vname v.Check.kind))
    (replay ())

(* Regression for the bug the metamorphic oracle found: a renumbered
   twin once shared an id-blind key with its original and replayed a
   cached schedule bound to the other loop's node ids.  The key now
   includes the ids: the renumbered twin misses and stores its own
   entry, while a reorder-only twin (same ids) still hits. *)
let test_cache_id_digest_guard () =
  let g = Ddg.create ~name:"chain" () in
  let ld = Ddg.add_node g Op.Load in
  let mul = Ddg.add_node g Op.Fmul in
  let st = Ddg.add_node g Op.Store in
  Ddg.add_edge g ~dep:Dep.True ld mul;
  Ddg.add_edge g ~dep:Dep.True mul st;
  let loop =
    Loop.make ~trip_count:64 ~entries:1
      ~streams:
        [
          { Loop.op = ld; base = 0; stride = 8 };
          { Loop.op = st; base = (1 lsl 20) + 1056; stride = 8 };
        ]
      g
  in
  let config = Hcrf_model.Presets.of_notation "S64" in
  let cache = Cache.create () in
  let ctx = Runner.Ctx.make ~cache () in
  let run l =
    match Runner.run_loop ~ctx config l with
    | Some r -> r
    | None -> Alcotest.fail "chain loop did not schedule"
  in
  ignore (run loop);
  let s1 = Cache.stats cache in
  Alcotest.(check int) "cold run stores" 1 s1.Cache.stores;
  let reorder = Morph.rewrite_loop ~m:Fun.id loop in
  let same_key a b =
    Fingerprint.equal (Fingerprint.of_loop a) (Fingerprint.of_loop b)
  in
  Alcotest.(check bool) "reorder keeps the key" true (same_key reorder loop);
  ignore (run reorder);
  let s2 = Cache.stats cache in
  Alcotest.(check int) "reorder twin hits" (s1.Cache.hits + 1) s2.Cache.hits;
  Alcotest.(check int) "reorder twin does not store" s1.Cache.stores
    s2.Cache.stores;
  let renum =
    Morph.rewrite_loop ~m:(Morph.reversing_bijection loop.Loop.ddg) loop
  in
  Alcotest.(check bool) "renumbering changes the key" false
    (same_key renum loop);
  ignore (run renum);
  let s3 = Cache.stats cache in
  Alcotest.(check int) "renumbered twin misses" (s2.Cache.misses + 1)
    s3.Cache.misses;
  Alcotest.(check int) "renumbered twin recomputes and stores"
    (s2.Cache.stores + 1) s3.Cache.stores;
  ignore (run loop);
  Alcotest.(check int) "the original still hits" (s3.Cache.hits + 1)
    (Cache.stats cache).Cache.hits

(* The oracle itself on a healthy loop. *)
let test_oracle_pass () =
  let rng = Hcrf_workload.Rng.create ~seed:21 in
  let loop = Hcrf_workload.Genloop.generate ~rng ~index:1 () in
  let v =
    Check.oracle ~opts:Hcrf_sched.Engine.default_options
      (Hcrf_model.Presets.of_notation "4C32") loop
  in
  Alcotest.(check string) "healthy loop passes" "pass" (vname v.Check.kind)

(* The oracles on port-constrained organizations: one pinned-seed pass
   over the whole 6 parameter x 4 generalized configuration x 4 options
   grid (Validate, Pipe_exec against Ref_exec, warm replay and the
   metamorphic twins on every case), with no failure and more than half
   passing. *)
let test_generalized_campaign () =
  let r =
    Check.campaign
      ~config_presets:(Lazy.force Check.generalized_config_presets)
      ~seed:42 ~cases:96 ()
  in
  let report = Fmt.str "%a" Check.pp_report r in
  Alcotest.(check int) ("no oracle failures\n" ^ report) 0
    (List.length r.Check.r_failures);
  Alcotest.(check int) "every case accounted for" 96
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Check.r_counts);
  Alcotest.(check bool) ("most cases pass\n" ^ report) true
    (List.assoc "pass" r.Check.r_counts > 48)

let tests =
  [
    ("check: oracle pass", `Quick, test_oracle_pass);
    ("check: campaign deterministic across jobs", `Slow,
     test_campaign_deterministic);
    ("check: fault injection caught and shrunk", `Slow,
     test_fault_injection_caught);
    ("check: repro roundtrip", `Quick, test_repro_roundtrip);
    ("check: repro strict parser", `Quick, test_repro_strict_parser);
    ("check: corpus replay", `Slow, test_corpus_replay);
    ("check: repro refuses sparse node ids", `Quick,
     test_repro_refuses_sparse_ids);
    ("check: cache id-digest guard", `Quick, test_cache_id_digest_guard);
    ("check: generalized hierarchy campaign", `Slow, test_generalized_campaign);
    ("check: repro refuses two streams on one op", `Quick,
     test_repro_refuses_two_streams_on_one_op);
  ]
