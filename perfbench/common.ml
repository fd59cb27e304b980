(* Shared pieces of the benchmark: clocks, sample statistics, seeded
   inputs, output checks and the result record every workload returns. *)

open Hcrf_ir

let now = Unix.gettimeofday

(* [time f] = (f (), elapsed seconds), on the nanosecond monotonic
   clock. *)
let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

let ns_of_s s = s *. 1e9

module IntMap = Map.Make (Int)

(* A fixed computation of the kind the scheduler does (hashing, sorting,
   balanced trees, short-lived lists) that shares no code with the
   repository: its time tracks the speed the host gives this process. *)
let reference_work () =
  let n = 1024 in
  let h = Hashtbl.create 64 and m = ref IntMap.empty and acc = ref 0 in
  for i = 0 to n - 1 do
    let k = (i * 7919) land 0xffff in
    Hashtbl.replace h k i;
    m := IntMap.add k i !m
  done;
  for i = 0 to n - 1 do
    let k = (i * 104729) land 0xffff in
    (match Hashtbl.find_opt h k with Some v -> acc := !acc + v | None -> ());
    match IntMap.find_opt k !m with Some v -> acc := !acc - v | None -> ()
  done;
  let a = Array.init n (fun i -> (i * 2654435761) land 0xfffff) in
  Array.sort compare a;
  let l = List.filter (fun x -> x land 1 = 0) (Array.to_list a) in
  Sys.opaque_identity (!acc + List.length (List.rev_map succ l))

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a non-empty sample, q in [0, 1]. *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Samples strictly beyond quantile [q]: the tail percentile is only
   reported with at least ten of them. *)
let beyond a q = Array.length a - int_of_float (Float.ceil (q *. float_of_int (Array.length a)))

(* Per-position medians of equally long sample rows (one row per
   round), summed: a round's typical total with transient stalls of
   single items filtered out. *)
let typical_total rows =
  match rows with
  | [] -> nan
  | first :: _ ->
    let total = ref 0. in
    Array.iteri
      (fun i _ ->
        total := !total +. median (Array.of_list (List.map (fun row -> row.(i)) rows)))
      first;
    !total

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)

(* A shared host's speed drifts by tens of percent over minutes, and
   moves every wall-clock time of a run alike.  Timed phases therefore
   interleave probes of [reference_work] with their operations and
   report times rescaled to a host on which one probe takes
   [nominal_probe_s] (about what it takes on a 2 GHz Xeon core): the
   measured time times [nominal_probe_s] over the phase's median probe.
   A change to the repository's code moves the times, not the probes. *)
let nominal_probe_s = 1e-3

type speed = { mutable probes : float list }

let speed () = { probes = [] }

let probe sp =
  for _ = 1 to 3 do
    sp.probes <- snd (time reference_work) :: sp.probes
  done

let probe_s sp = median (Array.of_list sp.probes)

(* Factor from a phase's measured seconds to nominal seconds. *)
let rescale sp = nominal_probe_s /. probe_s sp

(* ------------------------------------------------------------------ *)
(* Results                                                              *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable metrics : metric list;  (** reversed *)
}

let fresh_result () = { attempted = 0; failed = 0; correct = true; metrics = [] }

let put r name unit_ value = r.metrics <- { name; value; unit_ } :: r.metrics

(* A failed operation: counted, reported once per kind on stderr, and
   never fatal — the run goes on. *)
let warned = Hashtbl.create 8

let fail r kind fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      if not (Hashtbl.mem warned kind) then begin
        Hashtbl.replace warned kind ();
        Printf.eprintf "perfbench: failed %s: %s\n%!" kind msg
      end)
    fmt

(* A broken run (not a failed operation): the result is not correct. *)
let insane r fmt =
  Printf.ksprintf
    (fun msg ->
      r.correct <- false;
      Printf.eprintf "perfbench: sanity check failed: %s\n%!" msg)
    fmt

let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Timed phases run until the deadline and until the p99 has at least
   ten samples beyond it. *)
let min_samples = 1000

(* The p99 of each run of consecutive sample rows (rounds, oldest
   first) holding at least [min_samples] samples, median over those
   groups: a burst of contention on the host in one group does not set
   the run's tail.  [None] when there is no such group. *)
let grouped_p99 rows =
  let rec groups acc cur n = function
    | [] -> if n >= min_samples then cur :: acc else acc
    | row :: rest ->
      let cur = row :: cur and n = n + Array.length row in
      if n >= min_samples then groups (cur :: acc) [] 0 rest
      else groups acc cur n rest
  in
  match groups [] [] 0 rows with
  | [] -> None
  | gs -> Some (median (Array.of_list (List.map (fun g -> quantile (Array.concat g) 0.99) gs)))

(* Median latency plus the p99 (of all samples unless [p99] gives
   it), with the sample count and how many samples lie beyond the p99. *)
let latencies ?p99 r ~prefix ~what samples_s =
  let ms = Array.map (fun s -> s *. 1e3) samples_s in
  let n = Array.length ms in
  if n = 0 then insane r "no %s samples" what
  else begin
    let b = beyond ms 0.99 in
    let p99 = match p99 with Some s -> s *. 1e3 | None -> quantile ms 0.99 in
    note "%s: p50=%.4fms p99=%.4fms (all samples %.4fms) samples=%d beyond_p99=%d"
      what (median ms) p99 (quantile ms 0.99) n b;
    if b < 10 then
      note "%s: fewer than ten samples beyond the p99 (run longer)" what;
    put r (prefix ^ "p50_ms") "ms" (median ms);
    put r (prefix ^ "p99_ms") "ms" p99
  end

let json_of_result r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i m ->
      let v = if Float.is_finite m.value then m.value else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name v m.unit_)
    (List.rev r.metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* GC pressure of one phase: minor words allocated, major collections
   run, and the top of the major heap. *)
type gc_snap = { minor_words : float; major : int }

let gc_snap () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

let put_gc r ~ops before =
  let after = gc_snap () in
  let s = Gc.quick_stat () in
  let word = float_of_int (Sys.word_size / 8) in
  put r "gc.minor_mb_per_op" "MB"
    ((after.minor_words -. before.minor_words) *. word
     /. 1048576. /. float_of_int (max 1 ops));
  put r "gc.major_collections" "count" (float_of_int (after.major - before.major));
  put r "gc.top_heap_mb" "MB"
    (float_of_int s.Gc.top_heap_words *. word /. 1048576.)

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)

module Rng = Hcrf_workload.Rng

(* Independent generator per purpose, so adding a draw to one stream
   never shifts another. *)
let rng ~seed purpose = Rng.create ~seed:((seed * 1_000_003) + Hashtbl.hash purpose)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Relabel a loop's node ids through a seeded permutation: the same
   loop structure (same WL fingerprint) as the scheduler sees it under
   different ids, which moves tie-breaks, digests and layouts. *)
let renumber rng (loop : Loop.t) =
  let ids = Array.of_list (Ddg.nodes loop.Loop.ddg) in
  let perm = shuffle rng ids in
  let map = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace map id perm.(i)) ids;
  Hcrf_check.Morph.rewrite_loop
    ~m:(fun id -> Option.value ~default:id (Hashtbl.find_opt map id))
    loop

(* The workbench prefix a run uses, renumbered and reordered by the run
   seed.  The loop structures are the paper-sized stand-in suite's
   (default seed); the seed drives ids and order. *)
let workbench_loops ~seed ~n =
  let rng = rng ~seed "workbench" in
  Hcrf_workload.Suite.generate ~n ()
  |> List.map (renumber rng)
  |> Array.of_list |> shuffle rng |> Array.to_list

(* [n] loops that follow the first [skip] of the stand-in suite, in
   suite order, renumbered by the run seed: loops a workload built on
   that prefix has never seen. *)
let fresh_loops ~seed ~skip ~n =
  let rng = rng ~seed "fresh" in
  Hcrf_workload.Suite.generate ~n:(skip + n) ()
  |> List.filteri (fun i _ -> i >= skip)
  |> List.map (renumber rng)

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)

let scrub_perf (p : Hcrf_eval.Metrics.loop_perf) =
  { p with Hcrf_eval.Metrics.sched_seconds = 0. }

let scrub_entry = function
  | Hcrf_cache.Entry.Failed _ as e -> e
  | Hcrf_cache.Entry.Scheduled s ->
    Hcrf_cache.Entry.Scheduled
      { s with outcome = { s.outcome with Hcrf_cache.Entry.s_seconds = 0. } }

let bytes v = Marshal.to_string v [ Marshal.No_sharing ]
