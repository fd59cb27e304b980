(* Tests for the serving stack: wire framing (roundtrip property and
   malformed-frame goldens), the LRU tier against a reference model,
   the tiered answer path (coalescing, byte-identity, rejection), and a
   live in-process daemon over a loopback unix socket. *)

open Hcrf_server

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen_loop i =
  let rng = Hcrf_workload.Rng.create ~seed:(0xCAFE + (7919 * i)) in
  Hcrf_workload.Genloop.generate ~rng ~index:i ()

let config = Hcrf_model.Presets.published "4C32"
let opts = Hcrf_sched.Engine.default_options
let scenario = Hcrf_eval.Runner.Ideal

(* ------------------------------------------------------------------ *)
(* Wire framing *)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame/unframe roundtrip any payload" ~count:200
    QCheck.(string_of_size Gen.(0 -- 4096))
    (fun payload ->
      match Wire.unframe (Wire.frame payload) with
      | Ok p -> String.equal p payload
      | Error _ -> false)

let frame_error_name = function
  | Wire.Bad_magic -> "bad-magic"
  | Wire.Too_large _ -> "too-large"
  | Wire.Truncated -> "truncated"
  | Wire.Bad_checksum -> "bad-checksum"
  | Wire.Bad_payload _ -> "bad-payload"

let test_malformed_frames () =
  let f = Wire.frame "hello" in
  let expect what expected s =
    match Wire.unframe s with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e ->
      Alcotest.(check string) what expected (frame_error_name e)
  in
  expect "garbage" "bad-magic" "definitely not a frame, not even close";
  expect "empty" "truncated" "";
  expect "header cut short" "truncated" (String.sub f 0 10);
  expect "payload cut short" "truncated" (String.sub f 0 (String.length f - 2));
  expect "trailing junk" "truncated" (f ^ "x");
  (* flip one payload byte: the checksum must catch it *)
  let b = Bytes.of_string f in
  Bytes.set b (String.length f - 1) '!';
  expect "corrupt payload byte" "bad-checksum" (Bytes.to_string b);
  (* a frame claiming more than the limit is refused from the header *)
  (match Wire.unframe ~max_frame:3 f with
  | Error (Wire.Too_large n) -> check_int "claimed length" 5 n
  | Error e -> Alcotest.failf "oversized: wrong error %s" (frame_error_name e)
  | Ok _ -> Alcotest.fail "oversized: accepted");
  (* kind-tag confusion: a response payload never decodes as a request *)
  (match Wire.unframe (Wire.encode_response Wire.Pong) with
  | Error e -> Alcotest.failf "pong frame: %s" (frame_error_name e)
  | Ok payload -> (
    match Wire.decode_request payload with
    | Error (Wire.Bad_payload _) -> ()
    | Error e -> Alcotest.failf "wrong kind: %s" (frame_error_name e)
    | Ok _ -> Alcotest.fail "decoded a response as a request"))

let test_request_roundtrip () =
  let l = gen_loop 0 in
  let req =
    Wire.Schedule
      (Wire.request_of_loop ~timeout_ms:250 ~config ~opts ~scenario l)
  in
  List.iter
    (fun (what, r) ->
      match Wire.unframe (Wire.encode_request r) with
      | Error e -> Alcotest.failf "%s: %s" what (frame_error_name e)
      | Ok payload -> (
        match Wire.decode_request payload with
        | Error e -> Alcotest.failf "%s: %s" what (frame_error_name e)
        | Ok r' -> (
          match (r, r') with
          | Wire.Ping, Wire.Ping | Wire.Stats, Wire.Stats -> ()
          | Wire.Schedule s, Wire.Schedule s' ->
            (* the rebuilt loop must fingerprint identically, and the
               plain fields survive *)
            check (what ^ ": loop fingerprint") true
              (Hcrf_cache.Fingerprint.equal
                 (Hcrf_cache.Fingerprint.of_loop l)
                 (Hcrf_cache.Fingerprint.of_loop (Wire.loop_of_request s')));
            check_int (what ^ ": timeout") s.Wire.sr_timeout_ms
              s'.Wire.sr_timeout_ms
          | _ -> Alcotest.failf "%s: decoded as a different request" what)))
    [ ("ping", Wire.Ping); ("stats", Wire.Stats); ("schedule", req) ]

(* ------------------------------------------------------------------ *)
(* LRU vs a reference model *)

let prop_lru_model =
  (* the model: an assoc list in recency order, same capacity *)
  QCheck.Test.make ~name:"lru agrees with a reference model" ~count:100
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair (int_range 0 15) (int_range 0 99))))
    (fun (capacity, ops) ->
      let lru = Lru.create ~capacity in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (k, v) ->
          if v mod 3 = 0 then begin
            (* lookup *)
            let expected = List.assoc_opt k !model in
            let got = Lru.find lru k in
            if got <> expected then ok := false;
            match expected with
            | Some _ ->
              model := (k, List.assoc k !model) :: List.remove_assoc k !model
            | None -> ()
          end
          else begin
            Lru.add lru k v;
            model := (k, v) :: List.remove_assoc k !model;
            if List.length !model > capacity then
              model := List.filteri (fun i _ -> i < capacity) !model
          end)
        ops;
      !ok
      && Lru.length lru = List.length !model
      && List.for_all (fun (k, v) -> Lru.find lru k = Some v) !model)

let test_lru_eviction_counts () =
  let lru = Lru.create ~capacity:2 in
  Lru.add lru 1 "a";
  Lru.add lru 2 "b";
  check "1 present" true (Lru.find lru 1 = Some "a");
  (* 1 is now most recent: inserting 3 evicts 2 *)
  Lru.add lru 3 "c";
  check "2 evicted" true (Lru.find lru 2 = None);
  check "1 survived" true (Lru.find lru 1 = Some "a");
  check "3 present" true (Lru.find lru 3 = Some "c");
  let s = Lru.stats lru in
  check_int "evictions" 1 s.Lru.evictions;
  check_int "length" 2 s.Lru.length

(* ------------------------------------------------------------------ *)
(* Tiers: coalescing, byte-identity, rejection *)

let entry_bytes (e : Hcrf_cache.Entry.t) = Marshal.to_string e []

let scrub_entry = function
  | Hcrf_cache.Entry.Failed _ as e -> e
  | Hcrf_cache.Entry.Scheduled s ->
    Hcrf_cache.Entry.Scheduled
      { s with outcome = { s.outcome with Hcrf_cache.Entry.s_seconds = 0. } }

let sched_request ?(timeout_ms = 0) l =
  Wire.request_of_loop ~timeout_ms ~config ~opts ~scenario l

let test_tiers_cold_storm_coalesces () =
  let tiers = Tiers.create ~lru_capacity:16 ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Tiers.shutdown tiers) @@ fun () ->
  let l = gen_loop 1 in
  let req = sched_request l in
  (* a storm of identical cold requests from many threads: exactly one
     engine computation, byte-identical answers for everyone *)
  let n = 8 in
  let replies = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Tiers.schedule tiers req with
            | Wire.Scheduled e -> replies.(i) <- entry_bytes e
            | _ -> ())
          ())
  in
  List.iter Thread.join threads;
  check "every thread got an entry" true
    (Array.for_all (fun b -> b <> "") replies);
  Array.iter
    (fun b -> check "byte-identical replies" true (String.equal b replies.(0)))
    replies;
  let s = Tiers.stats tiers in
  check_int "one engine computation" 1 s.Wire.computed;
  check_int "all requests arrived" n s.Wire.requests;
  check_int "no rejections" 0 s.Wire.rejected;
  check_int "hits + coalesced cover the rest" (n - 1)
    (s.Wire.lru_hits + s.Wire.tier2_hits + s.Wire.coalesced)

(* In-flight coalescing keys on the node ids too (the key includes
   them): a renumbered twin racing its original must not be handed an
   entry bound to the original's ids. *)
let test_tiers_twin_gets_own_entry () =
  let tiers = Tiers.create ~lru_capacity:16 ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Tiers.shutdown tiers) @@ fun () ->
  let l = gen_loop 1 in
  let twin =
    Hcrf_check.Morph.rewrite_loop
      ~m:(Hcrf_check.Morph.reversing_bijection l.Hcrf_ir.Loop.ddg) l
  in
  let loops = [| l; twin; l |] in
  let replies = Array.make 3 "" in
  let threads =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            match Tiers.schedule tiers (sched_request loops.(i)) with
            | Wire.Scheduled e -> replies.(i) <- entry_bytes (scrub_entry e)
            | _ -> ())
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i loop ->
      let own = Hcrf_eval.Runner.compute_entry ~scenario ~opts config loop in
      Alcotest.(check bool)
        (Fmt.str "request %d answered with its own entry" i)
        true
        (String.equal replies.(i) (entry_bytes (scrub_entry own))))
    loops

(* [l]'s request with every node id (edges, invariant consumers, streams
   and the id counter included) moved up by [by]: still a valid graph,
   but one whose ids are far from compact. *)
let shifted_request ~by l =
  let req =
    sched_request (Hcrf_check.Morph.rewrite_loop ~m:(fun id -> id + by) l)
  in
  let lr = req.Wire.sr_loop in
  let ddg = lr.Hcrf_ir.Loop.repr_ddg in
  let next_id = ddg.Hcrf_ir.Ddg.repr_next_id + by in
  { req with
    Wire.sr_loop =
      { lr with
        Hcrf_ir.Loop.repr_ddg = { ddg with Hcrf_ir.Ddg.repr_next_id = next_id }
      } }

(* The scheduler sizes per-node arrays by the largest id, so a request
   with sparse ids is refused before it reaches the engine (building its
   graph costs O(|V|): [Ddg] keeps such ids in an overflow map) — while
   every loop the repo generates (suite, kernels, frontend programs,
   fuzz and gap corpora) has compact ids and is accepted. *)
let test_sparse_ids_refused () =
  let far = shifted_request ~by:(1 lsl 40) (gen_loop 2) in
  (match Wire.loop_of_request far with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ids shifted by 2^40 accepted");
  let corpus dir =
    let dir = if Sys.file_exists dir then dir else Filename.concat "test" dir in
    List.map
      (fun f ->
        match Hcrf_check.Repro.load f with
        | Ok r -> r.Hcrf_check.Repro.loop
        | Error e -> Alcotest.failf "%s: %s" f e)
      (Hcrf_check.Repro.corpus_files dir)
  in
  let generated =
    Hcrf_workload.Suite.generate ~n:200 ()
    @ Hcrf_workload.Suite.kernels ()
    @ List.map Hcrf_frontend.Compile.compile (Hcrf_incr.Progs.program ~n:120)
    @ corpus "corpus" @ corpus "gap_corpus"
  in
  List.iter
    (fun l ->
      match Wire.loop_of_request (sched_request l) with
      | _ -> ()
      | exception Invalid_argument msg ->
        Alcotest.failf "%s refused: %s" (Hcrf_ir.Loop.name l) msg)
    generated

(* Requests a well-formed client never sends: a negative trip count, a
   successor edge to a node that does not exist, an id counter that
   would hand out ids already in use, a node listed twice, and ids far
   from compact (the
   scheduler would allocate per-node arrays for a million ids). *)
let test_tiers_rejects_malformed_loop () =
  let req = sched_request (gen_loop 2) in
  let lr = req.Wire.sr_loop in
  let ddg = lr.Hcrf_ir.Loop.repr_ddg in
  let with_ddg ddg =
    { req with Wire.sr_loop = { lr with Hcrf_ir.Loop.repr_ddg = ddg } }
  in
  let dangling =
    match ddg.Hcrf_ir.Ddg.repr_nodes with
    | [] -> Alcotest.fail "empty loop"
    | (id, kind, succs, preds) :: rest ->
      let e =
        { Hcrf_ir.Ddg.src = id; dst = ddg.Hcrf_ir.Ddg.repr_next_id + 7;
          dep = Hcrf_ir.Dep.True; distance = 0 }
      in
      { ddg with
        Hcrf_ir.Ddg.repr_nodes = (id, kind, e :: succs, preds) :: rest }
  in
  (* the first node again, same edges, another kind: the old table kept
     the last entry and scheduled a different loop *)
  let twice =
    match ddg.Hcrf_ir.Ddg.repr_nodes with
    | [] -> Alcotest.fail "empty loop"
    | ((id, kind, succs, preds) :: _) as nodes ->
      let other =
        if kind = Hcrf_ir.Op.Fmul then Hcrf_ir.Op.Fadd else Hcrf_ir.Op.Fmul
      in
      { ddg with
        Hcrf_ir.Ddg.repr_nodes = nodes @ [ (id, other, succs, preds) ] }
  in
  List.iter
    (fun (what, req) ->
      let tiers = Tiers.create ~lru_capacity:4 ~jobs:1 () in
      Fun.protect ~finally:(fun () -> Tiers.shutdown tiers) @@ fun () ->
      (match Tiers.schedule tiers req with
      | Wire.Refused (Wire.Malformed, _) -> ()
      | Wire.Refused (k, _) ->
        Alcotest.failf "%s: wrong kind: %s" what (Wire.error_kind_name k)
      | _ -> Alcotest.failf "%s: accepted" what
      | exception e ->
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
      let s = Tiers.stats tiers in
      check_int (what ^ ": counted as rejected") 1 s.Wire.rejected;
      check_int (what ^ ": nothing computed") 0 s.Wire.computed)
    [ ("negative trip count",
       { req with
         Wire.sr_loop = { lr with Hcrf_ir.Loop.repr_trip_count = -3 } });
      ("dangling successor edge", with_ddg dangling);
      ("next id 0", with_ddg { ddg with Hcrf_ir.Ddg.repr_next_id = 0 });
      ("node id listed twice", with_ddg twice);
      ("ids shifted by 1M", shifted_request ~by:1_000_000 (gen_loop 2)) ]

(* One count, two readers: every [Tiers.stats] field is read from the
   same [Serve] notes the traced requests commit, so each must equal
   its serve.* key in the tracer's Counters sink. *)
let test_tiers_stats_are_trace_counts () =
  let counters = Hcrf_obs.Counters.create () in
  let tracer = Hcrf_obs.Tracer.make [ Hcrf_obs.Tracer.Counters counters ] in
  let tiers = Tiers.create ~lru_capacity:1 ~jobs:1 ~tracer () in
  Fun.protect ~finally:(fun () -> Tiers.shutdown tiers) @@ fun () ->
  let a = sched_request (gen_loop 5) and b = sched_request (gen_loop 6) in
  let ask req = ignore (Tiers.schedule tiers req) in
  ask a (* computed *);
  ask a (* LRU hit *);
  ask b (* computed; evicts a from the one-entry LRU *);
  ask a (* tier-2 hit *);
  ask { a with Wire.sr_config = { config with Hcrf_machine.Config.n_fus = 0 } }
  (* rejected *);
  (* a loop large enough to outlast a 1 ms deadline, asked again while
     it is still being computed *)
  let big =
    let params =
      { Hcrf_workload.Genloop.default_params with min_ops = 300; max_ops = 300 }
    in
    Hcrf_workload.Genloop.generate ~params
      ~rng:(Hcrf_workload.Rng.create ~seed:11) ~index:99 ()
  in
  (match Tiers.schedule tiers (sched_request ~timeout_ms:1 big) with
  | Wire.Refused (Wire.Timed_out, _) -> ()
  | _ -> Alcotest.fail "a 1 ms deadline on a 300-op loop did not expire");
  ask (sched_request big) (* coalesced onto the running computation *);
  let s = Tiers.stats tiers in
  check "every tier was exercised" true
    (s.Wire.lru_hits > 0 && s.Wire.tier2_hits > 0 && s.Wire.computed > 0
    && s.Wire.rejected > 0 && s.Wire.timeouts > 0
    && s.Wire.coalesced + s.Wire.tier2_hits > 1);
  let traced op =
    Hcrf_obs.Counters.count counters (Hcrf_obs.Event.Serve op)
  in
  List.iter
    (fun (field, v, op) -> check_int field (traced op) v)
    Hcrf_obs.Event.
      [ ("requests", s.Wire.requests, Request);
        ("lru_hits", s.Wire.lru_hits, Lru_hit);
        ("tier2_hits", s.Wire.tier2_hits, Disk_hit);
        ("computed", s.Wire.computed, Computed);
        ("coalesced", s.Wire.coalesced, Coalesced);
        ("rejected", s.Wire.rejected, Reject);
        ("timeouts", s.Wire.timeouts, Timeout) ];
  check_int "all seven requests counted" 7 s.Wire.requests

let test_tiers_jobs_identical () =
  (* the same request set against a 1-domain and a 4-domain tiers must
     produce byte-identical entries modulo scheduling wall-clock *)
  let loops = List.init 6 gen_loop in
  let answers jobs =
    let tiers = Tiers.create ~lru_capacity:16 ~jobs () in
    Fun.protect ~finally:(fun () -> Tiers.shutdown tiers) @@ fun () ->
    List.map
      (fun l ->
        match Tiers.schedule tiers (sched_request l) with
        | Wire.Scheduled e -> entry_bytes (scrub_entry e)
        | _ -> Alcotest.fail "request refused")
      loops
  in
  List.iter2
    (fun a b -> check "jobs=1 equals jobs=4" true (String.equal a b))
    (answers 1) (answers 4)

let test_pool_deadline () =
  (* an unfulfilled future times out; a fulfilled one does not *)
  let fut = Pool.promise () in
  (match Pool.await ~deadline:(Unix.gettimeofday () +. 0.02) fut with
  | `Timeout -> ()
  | `Ok _ | `Exn _ -> Alcotest.fail "empty future did not time out");
  Pool.fulfil fut (Ok 42);
  match Pool.await ~deadline:(Unix.gettimeofday () +. 0.02) fut with
  | `Ok v -> check_int "value" 42 v
  | `Timeout | `Exn _ -> Alcotest.fail "fulfilled future timed out"

(* ------------------------------------------------------------------ *)
(* A live daemon on a loopback unix socket *)

let with_daemon ?(jobs = 2) f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "hcrf-serve-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir dir 0o755;
  let addr = Wire.Unix_sock (Filename.concat dir "d.sock") in
  let tracer =
    Hcrf_obs.Tracer.make
      [ Hcrf_obs.Tracer.Counters (Hcrf_obs.Counters.create ()) ]
  in
  let tiers =
    Tiers.create ~dir:(Filename.concat dir "cache") ~jobs ~tracer ()
  in
  let daemon = Daemon.create ~addr tiers in
  let th = Daemon.spawn daemon in
  Fun.protect
    ~finally:(fun () ->
      Daemon.request_stop daemon;
      Thread.join th;
      let rec rm_rf p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm_rf dir)
    (fun () -> f addr tiers)

let connect addr =
  match Client.connect addr with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let test_daemon_roundtrip () =
  with_daemon @@ fun addr _tiers ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.ping c with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ping: %s" msg);
  let l = gen_loop 3 in
  let served =
    match Client.schedule c ~config ~opts ~scenario l with
    | Ok (Wire.Scheduled e) -> e
    | Ok _ -> Alcotest.fail "unexpected reply"
    | Error msg -> Alcotest.failf "schedule: %s" msg
  in
  (* the daemon's entry replays to exactly the local runner's result
     (independent computations: scrub the scheduler wall-clock) *)
  let scrub (p : Hcrf_eval.Metrics.loop_perf) =
    { p with Hcrf_eval.Metrics.sched_seconds = 0. }
  in
  (match
     ( Hcrf_eval.Runner.result_of_entry config l served,
       Hcrf_eval.Runner.run_loop config l )
   with
  | Some r, Some s ->
    check "daemon equals local runner" true
      (String.equal
         (Marshal.to_string (scrub r.Hcrf_eval.Runner.perf) [])
         (Marshal.to_string (scrub s.Hcrf_eval.Runner.perf) []))
  | _ -> Alcotest.fail "schedule failed");
  (* warm repeat: byte-identical, from a cache tier *)
  (match Client.schedule c ~config ~opts ~scenario l with
  | Ok (Wire.Scheduled e) ->
    check "warm reply byte-identical" true
      (String.equal (entry_bytes served) (entry_bytes e))
  | _ -> Alcotest.fail "warm request failed");
  match Client.stats c with
  | Error msg -> Alcotest.failf "stats: %s" msg
  | Ok s ->
    check_int "one computation" 1 s.Wire.computed;
    check_int "two schedule requests" 2 s.Wire.requests;
    check "warm answer came from a tier" true
      (s.Wire.lru_hits + s.Wire.tier2_hits = 1);
    (* the obs counters mirror the tier counters *)
    check "serve.request counted" true
      (List.assoc_opt "serve.request" s.Wire.counters = Some 2)

let test_daemon_concurrent_clients () =
  with_daemon @@ fun addr _tiers ->
  let l = gen_loop 4 in
  let n = 4 in
  let replies = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let c = connect addr in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            match Client.schedule c ~config ~opts ~scenario l with
            | Ok (Wire.Scheduled e) -> replies.(i) <- entry_bytes e
            | _ -> ())
          ())
  in
  List.iter Thread.join threads;
  check "every client answered" true
    (Array.for_all (fun b -> b <> "") replies);
  Array.iter
    (fun b ->
      check "identical across clients" true (String.equal b replies.(0)))
    replies;
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.stats c with
  | Error msg -> Alcotest.failf "stats: %s" msg
  | Ok s ->
    check_int "same fingerprint computed once" 1 s.Wire.computed

let test_daemon_survives_malformed () =
  with_daemon @@ fun addr _tiers ->
  (* a garbage blast gets this connection refused, not the daemon *)
  let bad = connect addr in
  (match Client.send_raw bad "not a frame: no magic, no length, no checksum" with
  | Ok (Wire.Refused (k, _)) ->
    Alcotest.(check string) "refused kind" "malformed" (Wire.error_kind_name k)
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> () (* server may close before the reply lands: also fine *));
  Client.close bad;
  (* an oversized frame is refused by its header *)
  let big = connect addr in
  let huge = Wire.frame (String.make (Wire.default_max_frame + 1) 'x') in
  (match Client.send_raw big (String.sub huge 0 Wire.header_size) with
  | Ok (Wire.Refused (Wire.Too_big, _)) -> ()
  | Ok (Wire.Refused (k, _)) ->
    Alcotest.failf "wrong kind: %s" (Wire.error_kind_name k)
  | Ok _ -> Alcotest.fail "oversized frame accepted"
  | Error _ -> ());
  Client.close big;
  (* the daemon is still alive and serving *)
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.ping c with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "daemon died: %s" msg);
  match Client.schedule c ~config ~opts ~scenario (gen_loop 5) with
  | Ok (Wire.Scheduled _) -> ()
  | _ -> Alcotest.fail "daemon no longer schedules"

(* ------------------------------------------------------------------ *)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    ("wire: malformed frames rejected", `Quick, test_malformed_frames);
    ("wire: request roundtrip", `Quick, test_request_roundtrip);
    QCheck_alcotest.to_alcotest prop_lru_model;
    ("lru: eviction order and counters", `Quick, test_lru_eviction_counts);
    ("tiers: cold storm coalesces", `Slow, test_tiers_cold_storm_coalesces);
    ("tiers: renumbered twin gets its own entry", `Quick,
     test_tiers_twin_gets_own_entry);
    ("wire: sparse node ids refused", `Quick, test_sparse_ids_refused);
    ("tiers: malformed loop refused", `Quick, test_tiers_rejects_malformed_loop);
    ("tiers: stats equal the traced serve counts", `Quick,
     test_tiers_stats_are_trace_counts);
    ("tiers: jobs=1 equals jobs=4", `Slow, test_tiers_jobs_identical);
    ("pool: deadline await", `Quick, test_pool_deadline);
    ("daemon: loopback roundtrip", `Slow, test_daemon_roundtrip);
    ("daemon: concurrent clients coalesce", `Slow, test_daemon_concurrent_clients);
    ("daemon: survives malformed frames", `Slow, test_daemon_survives_malformed);
  ]
