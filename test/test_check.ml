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

(* A compiled frontend program renders back to its own source (array
   [a<i>] is the compiler's [i]-th allocation); the same loop with one
   dead node (a load nobody reads) compiles to a smaller graph, so it
   is not expressible. *)
let test_repro_ast_rendering () =
  let module Ast = Hcrf_frontend.Ast in
  let loop =
    Hcrf_frontend.Compile.compile
      (Ast.make ~trip_count:64 ~entries:2 ~name:"axpy"
         [ Ast.store "a0" Ast.((arr "a2" *: arr "a1") +: arr ~off:1 "a1") ])
  in
  Alcotest.(check (result string string))
    "rendered"
    (Ok
       ({|make ~trip_count:64 ~entries:2 ~name:"axpy" [store "a0" ~off:0 |}
       ^ {|(((arr "a2" ~off:0) *: (arr "a1" ~off:0)) +: (arr "a1" ~off:1))]|}))
    (Repro.ast_of_loop loop);
  let g = Ddg.copy loop.Loop.ddg in
  let dead = Ddg.add_node g Op.Load in
  let dead_loop =
    { loop with
      Loop.ddg = g;
      streams = { Loop.op = dead; base = 8; stride = 8 } :: loop.Loop.streams }
  in
  match Repro.ast_of_loop dead_loop with
  | Ok text -> Alcotest.failf "dead node rendered as %s" text
  | Error reason ->
    Alcotest.(check string) "not expressible"
      "candidate AST compiles to a different loop" reason

(* A malformed reproducer must be rejected, not half-parsed. *)
let test_repro_strict_parser () =
  (match Repro.of_string "hcrf-repro 1\nbogus 42\n" with
  | Ok _ -> Alcotest.fail "unknown keyword accepted"
  | Error _ -> ());
  match Repro.of_string "hcrf-repro 99\nseed 1\n" with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error _ -> ()

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

let tests =
  [
    ("check: oracle pass", `Quick, test_oracle_pass);
    ("check: campaign deterministic across jobs", `Slow,
     test_campaign_deterministic);
    ("check: fault injection caught and shrunk", `Slow,
     test_fault_injection_caught);
    ("check: repro roundtrip", `Quick, test_repro_roundtrip);
    ("check: repro strict parser", `Quick, test_repro_strict_parser);
    ("check: repro AST rendering, dead node not expressible", `Quick,
     test_repro_ast_rendering);
    ("check: corpus replay", `Slow, test_corpus_replay);
    ("check: cache id-digest guard", `Quick, test_cache_id_digest_guard);
  ]
