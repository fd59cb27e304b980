(* The edit-session workload: a generated frontend program on 8C16S16
   under an in-memory stage memo.  Set-up is the cold evaluation; the
   timed part is a seeded script of single-kernel edits, each followed
   by [Pipeline.eval].  The memo grows on every edit and never evicts,
   so a session writes to it as well as reading. *)

open Common
module Pipeline = Hcrf_incr.Pipeline
module Progs = Hcrf_incr.Progs
module Memo = Hcrf_eval.Memo
module Runner = Hcrf_eval.Runner
module Metrics = Hcrf_eval.Metrics

let kernels = 120

(* A round is [sessions_per_round] sessions, each a cold evaluation of
   the program followed by its own [edits_per_session] edits of the
   script: a session edits each kernel about twice, and a round holds
   1000 distinct edits, so the p99 of a round lies among ten of them
   instead of being the second-slowest edit of a short script. *)
let edits_per_session = 200
let sessions_per_round = 5
let edits_per_round = edits_per_session * sessions_per_round

(* Per-edit medians need three rounds to drop a round's outlier. *)
let min_rounds = 3
let config () = Hcrf_model.Presets.published "8C16S16"

(* Which kernel each edit of a round touches: seeded permutations of
   the kernels, one after the other, so every session edits each kernel
   about equally often. *)
let script ~seed =
  let rng = rng ~seed "edit-script" in
  let perms =
    Array.concat
      (List.init ((edits_per_round / kernels) + 1) (fun _ ->
           shuffle rng (Array.init kernels Fun.id)))
  in
  Array.sub perms 0 edits_per_round

let perf_bytes p = bytes (Option.map scrub_perf p)

(* Cold-evaluation references of edited kernels, by kernel digest: every
   round replays the same script, so later rounds check against the
   references the first one computed. *)
let references : (string, string) Hashtbl.t = Hashtbl.create 256

(* Per-kernel metrics of [prog] from a fresh context: no memo, no
   cache, nothing warm. *)
let cold_eval config prog =
  let pipe = Pipeline.create ~ctx:(Runner.Ctx.make ~jobs:1 ()) config in
  let perfs, agg, _ = Pipeline.eval pipe prog in
  (perfs, agg)

type round = {
  setup_s : float;  (** median over the round's sessions *)
  edit_s : float array;
  replayed : int;  (** kernels answered from the memo during the edits *)
  recomputed : int;  (** engine runs during the edits *)
  sum_ii : int;
  mcycles : float;
  entries_cold : int;
  entries_end : int;
  stage_hits : (string * int) list;  (** memo counters after the edits *)
  stage_cold : (string * int) list;  (** memo counters after the cold eval *)
}

(* A round's sessions as one record: edit times in script order, counts
   summed. *)
let merge rds =
  let sum f = List.fold_left (fun acc rd -> acc + f rd) 0 rds in
  let stages f =
    List.map
      (fun (k, _) -> (k, sum (fun rd -> Option.value ~default:0 (List.assoc_opt k (f rd)))))
      (f (List.hd rds))
  in
  { setup_s = median (Array.of_list (List.map (fun rd -> rd.setup_s) rds));
    edit_s = Array.concat (List.map (fun rd -> rd.edit_s) rds);
    replayed = sum (fun rd -> rd.replayed); recomputed = sum (fun rd -> rd.recomputed);
    sum_ii = sum (fun rd -> rd.sum_ii);
    mcycles = List.fold_left (fun acc rd -> acc +. rd.mcycles) 0. rds;
    entries_cold = sum (fun rd -> rd.entries_cold);
    entries_end = sum (fun rd -> rd.entries_end);
    stage_hits = stages (fun rd -> rd.stage_hits);
    stage_cold = stages (fun rd -> rd.stage_cold) }

type session = {
  pipe : Pipeline.t;
  memo : Memo.t;
  mutable prog : Hcrf_frontend.Ast.t list;
  mutable perfs : Metrics.loop_perf option array;
  mutable agg : Metrics.aggregate;
  mutable replayed : int;
  mutable recomputed : int;
  open_s : float;
  times : float array;
  open_entries : int;
  open_stages : (string * int) list;
}

(* A session starts with the cold evaluation of the program. *)
let open_session config tracer =
  let memo = Memo.create () in
  let ctx = Runner.Ctx.make ~memo ~jobs:1 ~tracer () in
  let (pipe, prog, (perfs, agg, _)), open_s =
    time (fun () ->
        let prog = Progs.program ~n:kernels in
        let pipe = Pipeline.create ~ctx config in
        (pipe, prog, Pipeline.eval pipe prog))
  in
  { pipe; memo; prog; perfs = Array.of_list perfs; agg; replayed = 0;
    recomputed = 0; open_s; times = Array.make edits_per_session 0.;
    open_entries = Memo.length memo; open_stages = Memo.stage_stats memo }

(* Edit [i] of the script, timed, then checked: the edited kernel's
   metrics against a cold evaluation of that kernel, every other
   kernel's against its metrics before the edit. *)
let step r config s i kernel =
  let (next, (ps, agg, stats)), t =
    time (fun () ->
        let next = Progs.edit ~round:(i + 1) ~kernel s.prog in
        (next, Pipeline.eval s.pipe next))
  in
  s.times.(i mod edits_per_session) <- t;
  let computed = stats.Pipeline.sched.Runner.computed in
  s.recomputed <- s.recomputed + computed;
  s.replayed <- s.replayed + stats.Pipeline.kernels - computed;
  let ps = Array.of_list ps in
  r.attempted <- r.attempted + 1;
  let edited = List.nth next kernel in
  let digest = Hcrf_frontend.Ast.digest edited in
  let expect =
    match Hashtbl.find_opt references digest with
    | Some b -> b
    | None ->
      let b = perf_bytes (List.hd (fst (cold_eval config [ edited ]))) in
      Hashtbl.replace references digest b;
      b
  in
  let same k p =
    let want = if k = kernel then expect else perf_bytes s.perfs.(k) in
    String.equal (perf_bytes p) want
  in
  if not (Array.length ps = kernels && Array.for_all Fun.id (Array.mapi same ps))
  then
    fail r "edit_mismatch" "edit %d (kernel %d) differs from a cold evaluation"
      (i + 1) kernel;
  s.prog <- next;
  s.perfs <- ps;
  s.agg <- agg

(* The whole session's metrics against a cold evaluation. *)
let close r config s =
  r.attempted <- r.attempted + 1;
  let cold, _ = cold_eval config s.prog in
  if not (String.equal (bytes (List.map (Option.map scrub_perf) cold))
            (bytes (List.map (Option.map scrub_perf) (Array.to_list s.perfs))))
  then fail r "session_mismatch" "final session metrics differ from a cold evaluation";
  { setup_s = s.open_s; edit_s = s.times; replayed = s.replayed;
    recomputed = s.recomputed; sum_ii = s.agg.Metrics.sum_ii;
    mcycles = s.agg.Metrics.exec_cycles /. 1e6; entries_cold = s.open_entries;
    entries_end = Memo.length s.memo; stage_hits = Memo.stage_stats s.memo;
    stage_cold = s.open_stages }

(* One round per tracer: for each session of the round, one session per
   tracer, their edits interleaved one by one so that drift of the
   machine's speed hits every tracer alike; host-speed probes into [sp]
   before a session opens and every 20 edits. *)
let rounds ?sp r ~tracers script =
  let config = config () in
  let probe_now () = Option.iter probe sp in
  let session j =
    probe_now ();
    let sessions = List.map (open_session config) tracers in
    for e = 0 to edits_per_session - 1 do
      let i = (j * edits_per_session) + e in
      if e mod 20 = 0 then probe_now ();
      List.iter (fun s -> step r config s i script.(i)) sessions
    done;
    probe_now ();
    List.map (close r config) sessions
  in
  let by_session = List.init sessions_per_round session in
  List.mapi (fun t _ -> merge (List.map (fun rds -> List.nth rds t) by_session)) tracers

(* A round's times in nominal seconds. *)
let rescaled sp rd =
  let k = rescale sp in
  { rd with setup_s = rd.setup_s *. k; edit_s = Array.map (fun t -> t *. k) rd.edit_s }

let run_untraced ~seed ~seconds r =
  let script = script ~seed in
  let probes = ref [] in
  let deadline = now () +. seconds in
  let rec go acc =
    Gc.full_major ();
    let sp = speed () in
    let rd = List.hd (rounds ~sp r ~tracers:[ Hcrf_obs.Tracer.null ] script) in
    probes := probe_s sp :: !probes;
    let rd = rescaled sp rd in
    (match acc with
    | prev :: _ when (prev.sum_ii, prev.mcycles) <> (rd.sum_ii, rd.mcycles) ->
      fail r "nondeterministic" "session result moved between rounds"
    | _ -> ());
    let acc = rd :: acc in
    if now () < deadline || List.length acc < min_rounds then go acc else acc
  in
  let rounds = go [] in
  note "edit_session: %d kernels, %d sessions of %d edits per round, %d rounds"
    kernels sessions_per_round edits_per_session (List.length rounds);
  let probe_ms = median (Array.of_list !probes) *. 1e3 in
  note "edit_session: host probe %.4fms, times x%.4f" probe_ms
    (nominal_probe_s *. 1e3 /. probe_ms);
  let rows = List.map (fun rd -> rd.edit_s) rounds in
  put r "setup_s" "s" (median (Array.of_list (List.map (fun rd -> rd.setup_s) rounds)));
  (* the p99 over the script's edits of each edit's median over rounds:
     a burst of contention on the host in one round does not set it *)
  let per_edit =
    Array.init edits_per_round (fun i ->
        median (Array.of_list (List.map (fun row -> row.(i)) rows)))
  in
  latencies ~p99:(quantile per_edit 0.99) r ~prefix:"op_" ~what:"edit latency"
    (Array.concat rows);
  (* every round replays the same script, so [replayed] is the same *)
  let total = typical_total rows in
  put r "ops_per_s" "1/s" (float_of_int edits_per_round /. total);
  put r "warm_loops_per_s" "1/s" (float_of_int (List.hd rounds).replayed /. total);
  let last = List.hd rounds in
  put r "sum_ii" "count" (float_of_int last.sum_ii);
  put r "exec_mcycles" "Mcycles" last.mcycles

let stage_ratio rd stage =
  let get l k = Option.value ~default:0 (List.assoc_opt (stage ^ k) l) in
  let hits = get rd.stage_hits ".hits" - get rd.stage_cold ".hits" in
  let misses = get rd.stage_hits ".misses" - get rd.stage_cold ".misses" in
  ratio hits (hits + misses)

(* The traced run: one round untraced and one with a Counters sink,
   edit by edit (tracing overhead), per-layer figures from the traced
   one, and the frontend entry points timed over the kernels of the
   program after the first session's edits. *)
let run_traced ~seed ~seconds:_ r =
  let script = script ~seed in
  let counters = Hcrf_obs.Counters.create () in
  let tracer = Hcrf_obs.Tracer.make [ Hcrf_obs.Tracer.Counters counters ] in
  let gc0 = gc_snap () in
  let plain, rd =
    match rounds r ~tracers:[ Hcrf_obs.Tracer.null; tracer ] script with
    | [ plain; rd ] -> (plain, rd)
    | _ -> assert false
  in
  put_gc r ~ops:(2 * edits_per_round) gc0;
  let total rd = Array.fold_left ( +. ) 0. rd.edit_s in
  note "trace overhead: edits %.3fs untraced, %.3fs traced" (total plain) (total rd);
  put r "trace.overhead_pct" "%" (100. *. ((total rd /. total plain) -. 1.));
  put r "incr.recomputed_per_edit" "count"
    (ratio rd.recomputed edits_per_round);
  List.iter
    (fun stage -> put r ("memo.hit_ratio." ^ stage) "ratio" (stage_ratio rd stage))
    [ "frontend"; "extract"; "sched"; "metric" ];
  put r "memo.entries" "count"
    (float_of_int rd.entries_end /. float_of_int sessions_per_round);
  put r "memo.entries_per_edit" "count"
    (ratio (rd.entries_end - rd.entries_cold) edits_per_round);
  let count key =
    Option.value ~default:0 (List.assoc_opt key (Hcrf_obs.Counters.counts counters))
  in
  List.iter
    (fun (name, key) -> put r name "count" (float_of_int (count key)))
    [ ("sched.ii_try_events", "ii_try"); ("sched.eject_events", "eject");
      ("sched.place_events", "place") ];
  let prog =
    Array.fold_left
      (fun (i, prog) kernel -> (i + 1, Progs.edit ~round:i ~kernel prog))
      (1, Progs.program ~n:kernels) (Array.sub script 0 edits_per_session)
    |> snd
  in
  let probe f =
    median
      (Array.of_list
         (List.map (fun k -> ns_of_s (snd (time (fun () -> f k)))) prog))
  in
  put r "frontend.compile_ns" "ns" (probe (fun k -> ignore (Hcrf_frontend.Compile.compile k)));
  put r "frontend.digest_ns" "ns" (probe (fun k -> ignore (Hcrf_frontend.Ast.digest k)))

let run ~seed ~seconds ~traced r =
  if traced then run_traced ~seed ~seconds r else run_untraced ~seed ~seconds r;
  put r "peak_rss_mb" "MB" (peak_rss_mb ())
