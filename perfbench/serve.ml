(* The serving workload: an hcrf_serve daemon (pool jobs=1) on a
   loopback unix socket, driven by two closed-loop client connections.
   Most requests are drawn with Zipf popularity over a working set three
   times the daemon's LRU; a fixed share are loops never seen before,
   which must compute on the pool.  Every response is byte-compared
   (wall-clock scrubbed) with a local [Runner.compute_entry]. *)

open Common
module Wire = Hcrf_server.Wire
module Client = Hcrf_server.Client
module Tiers = Hcrf_server.Tiers
module Runner = Hcrf_eval.Runner

let lru_capacity = 64
let working_loops = 96
let configs () = List.map Hcrf_model.Presets.published [ "4C32S16"; "S64" ]
let fresh_share = 0.05
let fresh_pool = 1500
let clients = 2
let zipf_s = 1.0
let timeout_ms = 20_000
let rss_after = 3000

type item = { loop : Hcrf_ir.Loop.t; config : Hcrf_machine.Config.t }

let opts = Hcrf_core.Mirs_hc.default_options
let scenario = Runner.Ideal

(* Seeded inputs: the working set (workbench loops under two
   configurations), the never-seen pool, and the request sequence as
   item indices — working-set items first, then the pool in order. *)
type inputs = {
  configs : Hcrf_machine.Config.t list;
  items : item array;
  working : int;
  requests : int array;
}

let inputs ~seed =
  let cs = configs () in
  let working =
    List.concat_map
      (fun loop -> List.map (fun config -> { loop; config }) cs)
      (workbench_loops ~seed ~n:working_loops)
  in
  let rng_cfg = rng ~seed "serve-fresh-config" in
  let fresh =
    List.map
      (fun loop ->
        { loop; config = List.nth cs (Rng.int rng_cfg (List.length cs)) })
      (fresh_loops ~seed ~skip:working_loops ~n:fresh_pool)
  in
  let items = Array.of_list (working @ fresh) in
  let w = List.length working in
  (* Zipf popularity by workbench order (loop name, then configuration),
     the same for every seed: which loops are hot is a property of the
     workload, the seed drives only the draws *)
  let rank = Array.init w Fun.id in
  let key i =
    let it = items.(i) in
    (Hcrf_ir.Loop.name it.loop, it.config.Hcrf_machine.Config.name)
  in
  Array.sort (fun a b -> compare (key a) (key b)) rank;
  let weights = Array.init w (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make w 0. in
  ignore
    (Array.fold_left
       (fun (k, acc) x ->
         let acc = acc +. (x /. total) in
         cdf.(k) <- acc;
         (k + 1, acc))
       (0, 0.) weights);
  let draw rng =
    let u = Rng.float rng in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    rank.(min (w - 1) (find 0 (w - 1)))
  in
  let rng = rng ~seed "serve-requests" in
  let next_fresh = ref w in
  let requests =
    Array.init (fresh_pool * 18) (fun _ ->
        if Rng.float rng < fresh_share && !next_fresh < Array.length items then begin
          let i = !next_fresh in
          incr next_fresh;
          i
        end
        else draw rng)
  in
  { configs = cs; items; working = w; requests }

(* ------------------------------------------------------------------ *)
(* The daemon process                                                   *)

let run_dir = ".perfbench"

let started = ref 0

let sock_path () =
  (* relative, so the path stays short whatever the checkout's depth *)
  incr started;
  Filename.concat run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !started)

type daemon = { pid : int; addr : Wire.addr }

let child_env ~traced =
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 5 && String.sub kv 0 5 = "HCRF_"))
  in
  Array.of_list (if traced then "HCRF_TRACE=" :: keep else keep)

let stop { pid; _ } =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let live = ref []
let () = at_exit (fun () -> List.iter stop !live)

(* Spawn the daemon and wait until it answers a ping; the elapsed time
   is one set-up sample. *)
let start ~exe ~traced =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = sock_path () in
  (try Sys.remove path with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "--addr"; path; "--lru"; string_of_int lru_capacity; "-j"; "1" |]
      (child_env ~traced) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; addr = Wire.Unix_sock path } in
  live := d :: !live;
  let rec ready () =
    match Client.connect d.addr with
    | Ok c ->
      let ok = Client.ping c = Ok () in
      Client.close c;
      if ok then () else retry ()
    | Error _ -> retry ()
  and retry () =
    if now () -. t0 > 30. then failwith "hcrf_serve did not come up within 30 s";
    Unix.sleepf 2e-4;
    ready ()
  in
  ready ();
  (d, now () -. t0)

let shutdown d =
  stop d;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let connect d =
  match Client.connect d.addr with
  | Ok c -> c
  | Error msg -> failwith ("connect: " ^ msg)

let stats c =
  match Client.stats c with
  | Ok s -> s
  | Error msg -> failwith ("stats: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)

type outcome = Answer of string  (** digest of the scrubbed entry *) | Refused of string

let digest_entry e = Digest.string (bytes (scrub_entry e))

let ask c it =
  Client.schedule c ~timeout_ms ~config:it.config ~opts ~scenario it.loop

let outcome_of = function
  | Ok (Wire.Scheduled e) -> Answer (digest_entry e)
  | Ok (Wire.Refused (k, msg)) -> Refused (Wire.error_kind_name k ^ ": " ^ msg)
  | Ok _ -> Refused "unexpected reply"
  | Error msg -> Refused msg

(* Ask for every working-set item once: the daemon computes them all,
   so the window sees steady-state tiers. *)
let warm_up d inp =
  let c = connect d in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for i = 0 to inp.working - 1 do
    ignore (ask c inp.items.(i))
  done

type window = {
  served : (int * outcome * float * float) array;
      (** item, outcome, seconds, completion time since the start *)
  wall : float;
  before : Wire.serve_stats;
  after : Wire.serve_stats;
}

let stats_now d =
  let c = connect d in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> stats c)

(* [clients] closed-loop connections take the next request of the
   sequence, from request [from] on, until the deadline.  Every half
   second the connections hold while no request is in flight and
   [pause] runs (host-speed probes). *)
let window ?(from = 0) ?pause ?(on_take = ignore) d inp ~seconds =
  let before = stats_now d in
  let next = ref from and lock = Mutex.create () and changed = Condition.create () in
  let in_flight = ref 0 and hold = ref false and finished = ref 0 in
  let log = Array.make (Array.length inp.requests) (0, Refused "", 0., 0.) in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let take () =
    Mutex.protect lock @@ fun () ->
    while !hold do Condition.wait changed lock done;
    let k = !next in
    let go = now () < deadline && k < Array.length inp.requests in
    if go then begin
      incr next;
      incr in_flight;
      on_take (!next - from)
    end;
    if go then Some k else None
  in
  let client () =
    let c = connect d in
    Fun.protect
      ~finally:(fun () ->
        Client.close c;
        Mutex.protect lock (fun () -> incr finished))
    @@ fun () ->
    let rec loop () =
      match take () with
      | None -> ()
      | Some k ->
        let i = inp.requests.(k) in
        let resp, s = time (fun () -> ask c inp.items.(i)) in
        log.(k) <- (i, outcome_of resp, s, now () -. t0);
        Mutex.protect lock (fun () ->
            decr in_flight;
            Condition.broadcast changed);
        loop ()
    in
    loop ()
  in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  (match pause with
  | None -> ()
  | Some pause ->
    let rec probes () =
      Unix.sleepf 0.5;
      if now () < deadline && Mutex.protect lock (fun () -> !finished) = 0
      then begin
        Mutex.protect lock (fun () ->
            hold := true;
            while !in_flight > 0 do Condition.wait changed lock done);
        pause ();
        Mutex.protect lock (fun () ->
            hold := false;
            Condition.broadcast changed);
        probes ()
      end
    in
    probes ());
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let after = stats_now d in
  if !next >= Array.length inp.requests then
    note "serve_mixed: request sequence exhausted before the deadline";
  { served = Array.sub log from (!next - from); wall; before; after }

(* Windows of one daemon, oldest first, as one. *)
let merge ws =
  let first = List.hd ws and last = List.nth ws (List.length ws - 1) in
  { served = Array.concat (List.map (fun w -> w.served) ws);
    wall = List.fold_left (fun acc w -> acc +. w.wall) 0. ws;
    before = first.before; after = last.after }

let d_ w f = f w.after - f w.before

(* Local reference entries for every item the window touched (and the
   whole working set, which ΣII covers). *)
let references inp served =
  let refs = Hashtbl.create 512 in
  let compute i =
    if not (Hashtbl.mem refs i) then begin
      let it = inp.items.(i) in
      Hashtbl.replace refs i
        (Runner.compute_entry ~scenario ~opts it.config it.loop)
    end
  in
  for i = 0 to inp.working - 1 do compute i done;
  Array.iter (fun (i, _, _, _) -> compute i) served;
  refs

let check r w refs =
  Array.iter
    (fun (i, o, _, _) ->
      r.attempted <- r.attempted + 1;
      match o with
      | Refused msg -> fail r "refused" "request for item %d: %s" i msg
      | Answer dg ->
        if not (String.equal dg (digest_entry (Hashtbl.find refs i))) then
          fail r "mismatch" "item %d: daemon answer differs from a local compute" i)
    w.served

(* ΣII and execution Mcycles of the working set, per configuration. *)
let quality inp refs =
  List.fold_left
    (fun (ii, cyc) config ->
      let results =
        List.filter_map
          (fun i ->
            let it = inp.items.(i) in
            if it.config.Hcrf_machine.Config.name <> config.Hcrf_machine.Config.name
            then None
            else Runner.result_of_entry config it.loop (Hashtbl.find refs i))
          (List.init inp.working Fun.id)
      in
      let a = Runner.aggregate config results in
      (ii + a.Hcrf_eval.Metrics.sum_ii, cyc +. (a.Hcrf_eval.Metrics.exec_cycles /. 1e6)))
    (0, 0.) inp.configs

let tier_coverage r w =
  let lru = d_ w (fun s -> s.Wire.lru_hits) in
  let tier2 = d_ w (fun s -> s.Wire.tier2_hits) in
  let computed = d_ w (fun s -> s.Wire.computed) in
  let reqs = d_ w (fun s -> s.Wire.requests) in
  note "serve_mixed: requests=%d lru.hit_ratio=%.4f tier2.hit_ratio=%.4f serve.computed=%d coalesced=%d"
    reqs (ratio lru reqs) (ratio tier2 reqs) computed
    (d_ w (fun s -> s.Wire.coalesced));
  if lru = 0 || tier2 = 0 || computed = 0 then
    insane r "a tier went unused (lru=%d tier2=%d computed=%d)" lru tier2 computed;
  (lru, tier2, computed, reqs)

let latency_samples w = Array.map (fun (_, _, s, _) -> s) w.served

(* The p99 of each run of 1000 consecutive requests (completion
   order), median over those runs: a burst of contention on the host
   in one run does not set the window's tail.  [None] when the window
   has fewer than 1000 requests. *)
let grouped_p99_of w =
  let served = Array.copy w.served in
  Array.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) served;
  let lat = Array.map (fun (_, _, s, _) -> s) served in
  grouped_p99 (List.init (Array.length lat / 100) (fun i -> Array.sub lat (i * 100) 100))

(* Requests completed per second: the mean over the middle half of the
   window's half-second slices, so a stall of a second or so does not
   move it. *)
let throughput w =
  let slice = 0.5 in
  let n = int_of_float (w.wall /. slice) in
  if n < 4 then float_of_int (Array.length w.served) /. w.wall
  else begin
    let buckets = Array.make n 0. in
    Array.iter
      (fun (_, _, _, at) ->
        let b = int_of_float (at /. slice) in
        if b < n then buckets.(b) <- buckets.(b) +. (1. /. slice))
      w.served;
    let b = sorted buckets in
    mean (Array.sub b (n / 4) (n - (2 * (n / 4))))
  end

let run_untraced ~exe ~seed ~seconds r =
  let inp = inputs ~seed in
  (* fifteen daemon starts, one at a time, each after a host-speed probe;
     the last one serves the load *)
  let sp = speed () in
  let rec starts k acc =
    probe sp;
    let d, s = start ~exe ~traced:false in
    if k = 1 then (d, s :: acc)
    else begin
      shutdown d;
      starts (k - 1) (s :: acc)
    end
  in
  let d, setup = starts 15 [] in
  put r "setup_s" "s" (median (Array.of_list setup) *. rescale sp);
  warm_up d inp;
  (* the daemon's memory grows with every never-seen loop it computes,
     so its peak is read after a fixed number of requests, not after
     however many the window fits *)
  let pid = string_of_int d.pid and rss = ref nan in
  let on_take n = if n = rss_after then rss := peak_rss_mb ~pid () in
  let sp = speed () in
  let w = window ~pause:(fun () -> probe sp) ~on_take d inp ~seconds in
  let k = rescale sp in
  note "serve_mixed: host probe %.4fms, times x%.4f" (probe_s sp *. 1e3) k;
  if Float.is_nan !rss then begin
    note "serve_mixed: fewer than %d requests; peak RSS read at the end" rss_after;
    rss := peak_rss_mb ~pid ()
  end;
  put r "peak_rss_mb" "MB" !rss;
  shutdown d;
  let lru, tier2, _, _ = tier_coverage r w in
  let nominal = { w with served = Array.map (fun (i, o, s, at) -> (i, o, s *. k, at)) w.served } in
  latencies ?p99:(grouped_p99_of nominal) r ~prefix:"op_" ~what:"request latency"
    (latency_samples nominal);
  let rate = throughput w /. k in
  put r "ops_per_s" "1/s" rate;
  put r "warm_loops_per_s" "1/s"
    (rate *. ratio (lru + tier2) (Array.length w.served));
  let refs = references inp w.served in
  check r w refs;
  let sum_ii, mcycles = quality inp refs in
  put r "sum_ii" "count" (float_of_int sum_ii);
  put r "exec_mcycles" "Mcycles" mcycles

(* The traced run: the same load against an untraced and a traced
   (counters) daemon, alternating one-second windows so that drift of
   the machine's speed hits both alike (overhead and tier figures),
   then the traced windows' request sequence replayed through an
   in-process [Tiers.t] with every public call timed from outside. *)
let run_traced ~exe ~seed ~seconds r =
  let inp = inputs ~seed in
  let daemons = List.map (fun traced -> fst (start ~exe ~traced)) [ false; true ] in
  List.iter (fun d -> warm_up d inp) daemons;
  let slices = max 2 (int_of_float (seconds /. 2.)) in
  let rec alternate k froms acc =
    if k = 0 then List.map (fun ws -> merge (List.rev ws)) acc
    else begin
      let ws = List.map2 (fun d from -> window ~from d inp ~seconds:1.) daemons froms in
      alternate (k - 1)
        (List.map2 (fun from w -> from + Array.length w.served) froms ws)
        (List.map2 (fun w acc -> w :: acc) ws acc)
    end
  in
  let plain, w =
    match alternate slices [ 0; 0 ] [ []; [] ] with
    | [ plain; w ] -> (plain, w)
    | _ -> assert false
  in
  List.iter shutdown daemons;
  let p50 w = median (latency_samples w) in
  note "trace overhead: request p50 %.4fms untraced, %.4fms traced"
    (p50 plain *. 1e3) (p50 w *. 1e3);
  put r "trace.overhead_pct" "%" (100. *. ((p50 w /. p50 plain) -. 1.));
  let lru, tier2, computed, reqs = tier_coverage r w in
  put r "lru.hit_ratio" "ratio" (ratio lru reqs);
  put r "tier2.hit_ratio" "ratio" (ratio tier2 reqs);
  put r "serve.computed" "count" (float_of_int computed);
  put r "serve.coalesced" "count" (float_of_int (d_ w (fun s -> s.Wire.coalesced)));
  (* in-process replay of the traced window's request sequence *)
  let tiers = Tiers.create ~lru_capacity ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Tiers.shutdown tiers) @@ fun () ->
  let req it =
    Wire.request_of_loop ~timeout_ms ~config:it.config ~opts ~scenario it.loop
  in
  for i = 0 to inp.working - 1 do
    ignore (Tiers.schedule tiers (req inp.items.(i)))
  done;
  let lru_ns = ref [] and tier2_ns = ref [] and computed_ns = ref [] in
  let enc = ref [] and dec = ref [] and frame = ref [] and key_ns = ref [] in
  let all_ns = ref [] in
  let gc0 = gc_snap () in
  Array.iter
    (fun (i, _, _, _) ->
      let it = inp.items.(i) in
      let rq = req it in
      let s0 = Tiers.stats tiers in
      let resp, s = time (fun () -> Tiers.schedule tiers rq) in
      let s1 = Tiers.stats tiers in
      let ns = ns_of_s s in
      all_ns := ns :: !all_ns;
      if s1.Wire.lru_hits > s0.Wire.lru_hits then lru_ns := ns :: !lru_ns
      else if s1.Wire.tier2_hits > s0.Wire.tier2_hits then tier2_ns := ns :: !tier2_ns
      else if s1.Wire.computed > s0.Wire.computed then computed_ns := ns :: !computed_ns;
      let timed l f =
        let v, s = time f in
        l := ns_of_s s :: !l;
        v
      in
      (* a frame is decoded by unframing (length, checksum) and then
         unmarshalling the payload *)
      let decoded = function
        | Ok _ -> ()
        | Error e -> fail r "wire" "%s" (Fmt.str "%a" Wire.pp_frame_error e)
      in
      let qf = timed enc (fun () -> Wire.encode_request (Wire.Schedule rq)) in
      decoded
        (timed dec (fun () -> Result.bind (Wire.unframe qf) Wire.decode_request));
      let rf = timed enc (fun () -> Wire.encode_response resp) in
      decoded
        (timed dec (fun () -> Result.bind (Wire.unframe rf) Wire.decode_response));
      frame := float_of_int (String.length qf + String.length rf) :: !frame;
      ignore
        (timed key_ns (fun () ->
             Runner.cache_key ~scenario ~opts it.config it.loop)))
    w.served;
  put_gc r ~ops:(Array.length w.served) gc0;
  let med l = median (Array.of_list !l) in
  put r "tiers.lru_hit_ns" "ns" (med lru_ns);
  put r "tiers.tier2_hit_ns" "ns" (med tier2_ns);
  put r "tiers.computed_ns" "ns" (med computed_ns);
  put r "wire.encode_ns" "ns" (med enc);
  put r "wire.decode_ns" "ns" (med dec);
  put r "wire.frame_bytes" "bytes" (med frame);
  put r "cache.key_ns" "ns" (med key_ns);
  let client_ns = ns_of_s (p50 w) in
  put r "cache.key_share" "ratio" (med key_ns /. client_ns);
  put r "serve.outside_ns" "ns" (client_ns -. med all_ns);
  let refs = references inp (Array.append plain.served w.served) in
  check r plain refs;
  check r w refs

let run ~exe ~seed ~seconds ~traced r =
  if traced then run_traced ~exe ~seed ~seconds r
  else run_untraced ~exe ~seed ~seconds r
