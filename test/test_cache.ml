(* Tests for the content-addressed schedule cache: canonical
   fingerprints (reordering invariance, renumbering and single-field
   sensitivity), warm/cold byte-identity of suite aggregates, replay
   validity, and on-disk robustness. *)

open Hcrf_ir
open Hcrf_cache
open Hcrf_eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let hex = Fingerprint.to_hex

(* Deterministic random loops, straight from the workbench generator. *)
let gen_loop i =
  let rng = Hcrf_workload.Rng.create ~seed:(0x5EED + (7919 * i)) in
  Hcrf_workload.Genloop.generate ~rng ~index:i ()

let n_loops = 24
let loops = lazy (List.init n_loops gen_loop)
let nth_loop i = List.nth (Lazy.force loops) i

(* [l] rebuilt through [Loop.make], with the given fields replaced. *)
let remake ?ddg ?trip_count ?entries ?streams (l : Loop.t) =
  Loop.make
    ~trip_count:(Option.value trip_count ~default:l.Loop.trip_count)
    ~entries:(Option.value entries ~default:l.Loop.entries)
    ~streams:(Option.value streams ~default:l.Loop.streams)
    (Option.value ddg ~default:l.Loop.ddg)

(* ------------------------------------------------------------------ *)
(* Fingerprint invariance *)

(* Renumber every node of a loop with [m] (a bijection on the id set)
   and reverse all adjacency/stream orders on the way, by rewriting the
   graph's serializable [repr]. *)
let rewrite_loop ~m (l : Loop.t) =
  let remap_edge (e : Ddg.edge) =
    { e with Ddg.src = m e.Ddg.src; dst = m e.Ddg.dst }
  in
  let r = Ddg.to_repr l.Loop.ddg in
  let r' =
    { r with
      Ddg.repr_nodes =
        List.rev_map
          (fun (id, k, succs, preds) ->
            ( m id, k,
              List.rev_map remap_edge succs,
              List.rev_map remap_edge preds ))
          r.Ddg.repr_nodes;
      repr_invariants =
        List.map
          (fun (iv, consumers) -> (iv, List.rev_map m consumers))
          r.Ddg.repr_invariants }
  in
  remake l ~ddg:(Ddg.of_repr r')
    ~streams:
      (List.rev_map (fun s -> { s with Loop.op = m s.Loop.op }) l.Loop.streams)

(* A non-trivial bijection: map the sorted id list onto its reverse. *)
let reversing_bijection g =
  let ids = Ddg.nodes g in
  let tbl = Hashtbl.create (List.length ids) in
  List.iter2 (Hashtbl.add tbl) ids (List.rev ids);
  Hashtbl.find tbl

(* The engine breaks ties by node id, so a schedule is bound to its
   loop's ids: a renumbered twin needs a key of its own. *)
let prop_renumbering_sensitive =
  QCheck.Test.make ~name:"renumbered loops fingerprint differ"
    ~count:n_loops
    QCheck.(int_range 0 (n_loops - 1))
    (fun i ->
      let l = nth_loop i in
      let l' = rewrite_loop ~m:(reversing_bijection l.Loop.ddg) l in
      not (Fingerprint.equal (Fingerprint.of_loop l) (Fingerprint.of_loop l')))

let prop_reordering_invariant =
  QCheck.Test.make ~name:"edge/node-reordered loops fingerprint equal"
    ~count:n_loops
    QCheck.(int_range 0 (n_loops - 1))
    (fun i ->
      let l = nth_loop i in
      (* identity renumbering: only the list orders change *)
      let l' = rewrite_loop ~m:Fun.id l in
      Fingerprint.equal (Fingerprint.of_loop l) (Fingerprint.of_loop l'))

(* ------------------------------------------------------------------ *)
(* Fingerprint sensitivity: every single-field change must move it *)

let all_distinct names fps =
  let hexes = List.map hex fps in
  let sorted = List.sort_uniq String.compare hexes in
  Alcotest.(check int)
    (Fmt.str "all of [%s] hash distinct" (String.concat "; " names))
    (List.length hexes) (List.length sorted)

(* [l] with its graph's id counters raised by [ids] and [invs]. *)
let with_counters ?(ids = 0) ?(invs = 0) (l : Loop.t) =
  let r = Ddg.to_repr l.Loop.ddg in
  remake l
    ~ddg:
      (Ddg.of_repr
         { r with
           Ddg.repr_next_id = r.Ddg.repr_next_id + ids;
           repr_next_inv = r.Ddg.repr_next_inv + invs })

(* The single-field mutants of a loop: one dependence distance, one
   opcode, the trip and entry counts, one memory-stream base address,
   the two id counters, and two distances near [max_int / 2] one apart
   (a key that packed (dst, dep, distance) into one int would overflow
   and merge them). *)
let mutants (l : Loop.t) =
  let g = l.Loop.ddg in
  let with_distance f =
    match Ddg.edges g with
    | [] -> []
    | e :: _ ->
      let g' = Ddg.copy g in
      Ddg.remove_edge g' e;
      Ddg.add_edge g' ~distance:(f e.Ddg.distance) ~dep:e.Ddg.dep e.Ddg.src
        e.Ddg.dst;
      [ remake l ~ddg:g' ]
  in
  let flip_opcode () =
    let r = Ddg.to_repr g in
    let flipped = ref false in
    let r' =
      { r with
        Ddg.repr_nodes =
          List.map
            (fun (id, k, s, p) ->
              if !flipped then (id, k, s, p)
              else begin
                flipped := true;
                ((id, (if k = Op.Fadd then Op.Fmul else Op.Fadd), s, p))
              end)
            r.Ddg.repr_nodes }
    in
    remake l ~ddg:(Ddg.of_repr r')
  in
  let shift_stream =
    match l.Loop.streams with
    | [] -> []
    | s :: rest ->
      [ remake l ~streams:({ s with Loop.base = s.Loop.base + 8 } :: rest) ]
  in
  let named name ls = List.map (fun l -> (name, l)) ls in
  named "distance" (with_distance succ)
  @ [ ("opcode", flip_opcode ());
      ("trip", remake l ~trip_count:(l.Loop.trip_count + 1));
      ("entries", remake l ~entries:(l.Loop.entries + 1)) ]
  @ named "stream-base" shift_stream
  @ [ ("next-id", with_counters ~ids:1 l);
      ("next-inv", with_counters ~invs:1 l) ]
  @ named "distance max_int/2" (with_distance (fun _ -> max_int / 2))
  @ named "distance max_int/2+1" (with_distance (fun _ -> (max_int / 2) + 1))

let test_loop_sensitivity () =
  let l = nth_loop 0 in
  let variants = ("original", l) :: mutants l in
  all_distinct (List.map fst variants)
    (List.map (fun (_, l) -> Fingerprint.of_loop l) variants)

(* ------------------------------------------------------------------ *)
(* The key against a plain reference: the loop as an OCaml value with
   every list sorted, compared structurally.  Keys must be equal exactly
   when the references are. *)

let reference (l : Loop.t) =
  let r = Ddg.to_repr l.Loop.ddg in
  ( List.sort compare
      (List.map
         (fun (id, kind, succs, _) ->
           ( id, kind,
             List.sort compare
               (List.map
                  (fun (e : Ddg.edge) -> (e.Ddg.dst, e.Ddg.dep, e.Ddg.distance))
                  succs) ))
         r.Ddg.repr_nodes),
    List.sort compare
      (List.map
         (fun (iv, cs) -> (iv, List.sort compare cs))
         r.Ddg.repr_invariants),
    List.sort compare l.Loop.streams,
    ( l.Loop.trip_count, l.Loop.entries, r.Ddg.repr_next_id,
      r.Ddg.repr_next_inv ) )

(* Both must split [loops] into the same classes: all pairs. *)
let check_same_partition what loops =
  let keys = List.map (fun l -> (Fingerprint.of_loop l, reference l)) loops in
  let disagreements =
    List.concat_map
      (fun (k, r) ->
        List.filter (fun (k', r') -> Fingerprint.equal k k' <> (r = r')) keys)
      keys
  in
  check_int (what ^ ": pairs where the keys disagree") 0
    (List.length disagreements);
  List.length (List.sort_uniq Fingerprint.compare (List.map fst keys))

(* A loop of [n] [Fadd] nodes with [True] edges (src, dst, distance)
   and invariants given by their consumer lists. *)
let fadd_loop name n edges invariants =
  let g = Ddg.create ~name () in
  let ids = Array.init n (fun _ -> Ddg.add_node g Op.Fadd) in
  List.iter
    (fun (s, d, distance) ->
      Ddg.add_edge g ~distance ~dep:Dep.True ids.(s) ids.(d))
    edges;
  List.iter
    (fun cs ->
      ignore (Ddg.add_invariant g ~consumers:(List.map (Array.get ids) cs)))
    invariants;
  Loop.make ~trip_count:100 g

(* Edges of a [k]-ring and a [k]-path over the nodes from [first] on. *)
let ring ~distance k first =
  List.init k (fun i -> (first + i, first + ((i + 1) mod k), distance))

let path k first = List.init (k - 1) (fun i -> (first + i, first + i + 1, 0))

(* One 6-op ring against two 3-op rings, every edge [True] at distance
   1: non-isomorphic, but every node sees the same neighbourhood, so
   1-dimensional Weisfeiler–Lehman refinement, an id-blind key, cannot
   split them. *)
let wl_twins () =
  ( fadd_loop "ring6" 6 (ring ~distance:1 6 0) [],
    fadd_loop "rings3x2" 6 (ring ~distance:1 3 0 @ ring ~distance:1 3 3) [] )

(* Loops an id-blind key splits only by full refinement (fingerprinted
   only, never scheduled): every node carries the same label and each
   pair has the same edge multiset over labels.  An out-star and a path
   split at round 1; a 7-path and a 3-path plus a 4-ring have the same
   round-1 classes and edges between them and split at round 2; one
   invariant read by two nodes and two invariants read by one each
   differ only in the invariant table. *)
let wl_probes () =
  let a, b = wl_twins () in
  [ fadd_loop "star4" 4 [ (0, 1, 0); (0, 2, 0); (0, 3, 0) ] [];
    fadd_loop "path4" 4 (path 4 0) [];
    fadd_loop "path7" 7 (path 7 0) [];
    fadd_loop "path3+ring4" 7 (path 3 0 @ ring ~distance:0 4 3) [];
    fadd_loop "shared-invariant" 2 [] [ [ 0; 1 ] ];
    fadd_loop "split-invariants" 2 [] [ [ 0 ]; [ 1 ] ];
    a; b ]

let test_partition_suite_and_kernels () =
  ignore
    (check_same_partition "suite of 200 + kernels + WL probes"
       (Hcrf_workload.Suite.generate ~n:200 ()
       @ Hcrf_workload.Suite.kernels () @ wl_probes ()))

let test_partition_progs () =
  let loops =
    List.map Hcrf_frontend.Compile.compile (Hcrf_incr.Progs.program ~n:120)
  in
  check_int "Progs kernels: classes" 60
    (check_same_partition "Progs ~n:120" loops)

(* An id-blind key would replay one loop's schedule for the other; the
   id-sensitive key keeps them apart, both in the batch runner and in
   the daemon's tiers. *)
let test_wl_collision_gets_own_schedule () =
  let a, b = wl_twins () in
  check "keys differ" false
    (Fingerprint.equal (Fingerprint.of_loop a) (Fingerprint.of_loop b));
  let config = Hcrf_model.Presets.published "4C32" in
  let opts = Hcrf_sched.Engine.default_options in
  (* the stored outcome, wall-clock scrubbed *)
  let outcome_bytes what = function
    | Entry.Scheduled s ->
      check (what ^ ": answer validates") true
        (Hcrf_core.Mirs_hc.is_valid (Entry.to_outcome config s.outcome));
      Marshal.to_string { s.outcome with Entry.s_seconds = 0. } []
    | Entry.Failed _ -> Alcotest.failf "%s: not scheduled" what
  in
  let own (loop : Loop.t) =
    outcome_bytes (Loop.name loop)
      (Runner.compute_entry ~scenario:Runner.Ideal ~opts config loop)
  in
  let ctx = Runner.Ctx.make ~cache:(Cache.create ()) () in
  let tiers = Hcrf_server.Tiers.create ~lru_capacity:4 ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Hcrf_server.Tiers.shutdown tiers)
  @@ fun () ->
  List.iter
    (fun (loop : Loop.t) ->
      let what = Loop.name loop in
      (match Runner.run_loop ~ctx config loop with
      | Some r ->
        check (what ^ ": run_loop answers its own schedule") true
          (String.equal (own loop)
             (outcome_bytes what
                (Entry.of_outcome r.Runner.outcome ~stall_cycles:0.
                   ~retries:0)))
      | None -> Alcotest.failf "%s: not scheduled" what);
      match
        Hcrf_server.Tiers.schedule tiers
          (Hcrf_server.Wire.request_of_loop ~config ~opts
             ~scenario:Runner.Ideal loop)
      with
      | Hcrf_server.Wire.Scheduled e ->
        check (what ^ ": tiers answer its own schedule") true
          (String.equal (own loop) (outcome_bytes what e))
      | _ -> Alcotest.failf "%s: tiers refused" what)
    [ a; b; a; b ]

let test_config_sensitivity () =
  let open Hcrf_machine in
  let c = Hcrf_model.Presets.published "4C32S16" in
  let lat_bump =
    { c with
      Config.lats = { c.Config.lats with Latencies.fadd = c.Config.lats.Latencies.fadd + 1 } }
  in
  let variants =
    [ ("original", c);
      ("latency", lat_bump);
      ("regs", { c with Config.rf = Rf.of_notation "4C64S16" });
      ("shared-regs", { c with Config.rf = Rf.of_notation "4C32S32" });
      ("fus", { c with Config.n_fus = c.Config.n_fus + 4 });
      ("mem-ports", { c with Config.n_mem_ports = c.Config.n_mem_ports + 1 });
      ("clock", { c with Config.cycle_ns = c.Config.cycle_ns *. 1.5 });
      ("miss", { c with Config.miss_ns = c.Config.miss_ns +. 1. });
      (* the display name must NOT matter *)
    ]
  in
  all_distinct (List.map fst variants)
    (List.map (fun (_, c) -> Fingerprint.of_config c) variants);
  check "renaming a config does not change its fingerprint" true
    (Fingerprint.equal (Fingerprint.of_config c)
       (Fingerprint.of_config { c with Config.name = "renamed" }))

(* Every generalized port/level field must reach the config fingerprint
   on its own: two configurations differing in any single one of them
   can never alias in the schedule cache. *)
let test_generalized_config_sensitivity () =
  let open Hcrf_machine in
  let cfg n = { (Hcrf_model.Presets.published "4C32S16") with
                Config.rf = Rf.of_notation n } in
  let variants =
    [ ("legacy", cfg "4C32S16");
      ("local-access", cfg "4C32S16@r2w1");
      ("local-access-pr", cfg "4C32S16@r3w1");
      ("local-access-pw", cfg "4C32S16@r2w2");
      ("shared-access", cfg "4C32S16@Sr2w1");
      ("l3", cfg "4C32S16-L3:64");
      ("l3-regs", cfg "4C32S16-L3:128");
      ("l3-lp", cfg "4C32S16-L3:64l2s1");
      ("l3-sp", cfg "4C32S16-L3:64l1s2");
      ("l3-access", cfg "4C32S16-L3:64@Tr2w1");
      ("l3-access-pw", cfg "4C32S16-L3:64@Tr2w2");
      ("flat-access", cfg "4C32@r2w1");
      ("mono-access", cfg "S128@r2w1") ]
  in
  all_distinct (List.map fst variants)
    (List.map (fun (_, c) -> Fingerprint.of_config c) variants);
  (* ... while the fully unbounded constraint is canonically absent:
     the explicitly-uniform encoding keeps the legacy digest *)
  check "explicit @rinfwinf keeps the legacy fingerprint" true
    (Fingerprint.equal
       (Fingerprint.of_config (cfg "4C32S16"))
       (Fingerprint.of_config (cfg "4C32S16@rinfwinf")))

let test_options_sensitivity () =
  let open Hcrf_sched in
  let d = Engine.default_options in
  let variants =
    [ ("default", d);
      ("budget", { d with Engine.budget_ratio = d.Engine.budget_ratio + 1 });
      ("max-ii", { d with Engine.max_ii = Some 64 });
      ("backtracking", { d with Engine.backtracking = false });
      ("ordering", { d with Engine.ordering = `Topological }) ]
  in
  all_distinct (List.map fst variants)
    (List.map (fun (_, o) -> Fingerprint.of_options o) variants);
  (* load_override is not sampled: the key's scenario covers it *)
  let ov = { d with Engine.load_override = (fun _ -> Some 9) } in
  check "override invisible" true
    (Fingerprint.equal (Fingerprint.of_options d) (Fingerprint.of_options ov))

(* Distinct inputs digest apart and equal inputs digest equal, over
   every configuration the experiments and the sensitivity tests build
   (all seven Figure 6 entries are also Table 5 entries, so those pairs
   must agree), latencies and counts down to [min_int], every options
   variant, and arbitrary labels, label lists and nested combinations.
   [Fingerprint.t] is abstract, so [combine]'s parts are digests of
   labels. *)
let test_digests_distinct () =
  let open Hcrf_machine in
  let base = Hcrf_model.Presets.published "8C16S16" in
  let with_rf n = { base with Config.rf = Rf.of_notation n } in
  let with_lat f = { base with Config.lats = f base.Config.lats } in
  let configs =
    Hcrf_model.Presets.table5_configs ()
    @ Experiments.figure6_configs ()
    @ List.map with_rf
        [ "4C32S16@r2w1"; "4C32S16@r3w1"; "4C32S16@r2w2"; "4C32S16@Sr2w1";
          "4C32S16-L3:64"; "4C32S16-L3:128"; "4C32S16-L3:64l2s1";
          "4C32S16-L3:64l1s2"; "4C32S16-L3:64@Tr2w1"; "4C32S16-L3:64@Tr2w2";
          "4C16S16-L3:64l2s2@Tr2w1"; "2C32S32@Sr4w2"; "4C32@r2w1";
          "S128@r2w1"; "4C16S16@rinfwinf"; "S64"; "4C32" ]
    @ List.map with_lat
        [ (fun l -> { l with Latencies.fadd = -1 });
          (fun l -> { l with Latencies.fmul = -1234567 });
          (fun l -> { l with Latencies.storer = min_int });
          (fun l -> { l with Latencies.move = max_int });
          (fun l -> { l with Latencies.fdiv = min_int; fsqrt = -10 }) ]
    @ [ { base with Config.n_fus = min_int; n_mem_ports = -9 };
        { base with Config.cycle_ns = -0.; miss_ns = 1e300 } ]
  in
  let unnamed (c : Config.t) = { c with Config.name = "" } in
  let equal_pairs = ref 0 in
  List.iteri
    (fun i (a : Config.t) ->
      List.iteri
        (fun j (b : Config.t) ->
          if i < j then begin
            let same = unnamed a = unnamed b in
            if same then incr equal_pairs;
            Alcotest.(check bool)
              (Fmt.str "configs %d (%s) and %d (%s) digest %s" i
                 (Rf.notation a.Config.rf) j (Rf.notation b.Config.rf)
                 (if same then "equal" else "apart"))
              same
              (Fingerprint.equal (Fingerprint.of_config a)
                 (Fingerprint.of_config b))
          end)
        configs)
    configs;
  check "some pairs are equal apart from the name" true (!equal_pairs >= 7);
  let d = Hcrf_sched.Engine.default_options in
  let options =
    [ ("default", d);
      ("budget", { d with Hcrf_sched.Engine.budget_ratio = d.budget_ratio + 1 });
      ("negative budget", { d with budget_ratio = min_int });
      ("max-ii", { d with max_ii = Some 64 });
      ("negative max-ii", { d with max_ii = Some (-3) });
      ("backtracking", { d with backtracking = false });
      ("ordering", { d with ordering = `Topological }) ]
  in
  all_distinct (List.map fst options)
    (List.map (fun (_, o) -> Fingerprint.of_options o) options);
  let label =
    QCheck.(oneof [ string; string_of_size (Gen.int_range 100 1200) ])
  in
  let apart a b = not (Fingerprint.equal a b) in
  let combined ls = Fingerprint.combine (List.map Fingerprint.of_string ls) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"labels and combinations" ~count:300
       QCheck.(pair (pair label label) (pair (small_list label) (small_list label)))
       (fun ((s, s'), (ls, ls')) ->
         let ts = List.map Fingerprint.of_string ls in
         (s = s' || apart (Fingerprint.of_string s) (Fingerprint.of_string s'))
         && apart (Fingerprint.of_string s) (Fingerprint.of_string (s ^ "\000"))
         && (ls = ls' || apart (combined ls) (combined ls'))
         && apart (combined ls) (combined (ls @ [ s ]))
         && apart (Fingerprint.combine ts)
              (Fingerprint.combine [ Fingerprint.combine ts ])
         && apart
              (Fingerprint.combine (Fingerprint.combine ts :: ts))
              (Fingerprint.combine (ts @ ts))));
  all_distinct
    [ "empty label"; "empty combination"; "combination of the empty label";
      "nested empty combination" ]
    [ Fingerprint.of_string ""; Fingerprint.combine [];
      Fingerprint.combine [ Fingerprint.of_string "" ];
      Fingerprint.combine [ Fingerprint.combine [] ] ]

(* A digest allocates its output and one transcript buffer: no part
   strings, no part list, no rendered floats. *)
let test_digests_allocate_bounded () =
  let ds = List.init 4 (fun i -> Fingerprint.of_string (string_of_int i)) in
  let c = Hcrf_model.Presets.published "8C16S16" in
  let words_per_call f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do ignore (Sys.opaque_identity (f ())) done;
    (Gc.minor_words () -. w0) /. 1000.
  in
  let bounded what bound f =
    let w = words_per_call f in
    if w > bound then
      Alcotest.failf "%s: %.1f words a call, bound %.0f" what w bound
  in
  bounded "combine of four digests" 32. (fun () -> Fingerprint.combine ds);
  bounded "of_config 8C16S16" 48. (fun () -> Fingerprint.of_config c)

(* ------------------------------------------------------------------ *)
(* Warm/cold byte-identity of suite aggregates *)

let presets = [ "S64"; "4C32"; "4C32S16" ]

(* [sched_seconds] is scheduler wall-clock: the only aggregate field
   that legitimately differs between two *live* runs.  Warm replays
   reuse the stored seconds, so warm runs must byte-match the cold
   populating run including it; against an independent uncached run we
   compare with the wall-clock scrubbed. *)
let scrub (a : Metrics.aggregate) = { a with Metrics.sched_seconds = 0. }
let bytes_of a = Marshal.to_string a []

(* The cold pass replays each loop's outcome through [run_loop]; the
   warm passes read the suite's aggregate from [run_suite]. *)
let replayed_aggregate ctx config suite =
  Runner.aggregate config (List.filter_map (Runner.run_loop ~ctx config) suite)

let test_warm_cold_identical () =
  let suite = List.init 10 gen_loop in
  List.iter
    (fun name ->
      let config = Hcrf_model.Presets.published name in
      let uncached = Runner.run_suite config suite in
      let cache = Cache.create () in
      let cold = replayed_aggregate (Runner.Ctx.make ~cache ()) config suite in
      check (name ^ ": cold cached run equals the uncached run") true
        (String.equal (bytes_of (scrub uncached)) (bytes_of (scrub cold)));
      List.iter
        (fun jobs ->
          let warm =
            Runner.run_suite ~ctx:(Runner.Ctx.make ~cache ~jobs ()) config suite
          in
          check
            (Fmt.str "%s jobs=%d: warm bytes equal the cold run" name jobs)
            true
            (String.equal (bytes_of cold) (bytes_of warm));
          check
            (Fmt.str "%s jobs=%d: printed aggregates identical" name jobs)
            true
            (String.equal
               (Fmt.str "%a"
                  (Metrics.pp_aggregate ?cache:None ?trace:None)
                  uncached)
               (Fmt.str "%a"
                  (Metrics.pp_aggregate ?cache:None ?trace:None)
                  warm)))
        [ 1; 4 ];
      let s = Cache.stats cache in
      check_int (name ^ ": one miss per loop") 10 s.Cache.misses;
      check_int (name ^ ": two warm passes hit") 20 s.Cache.hits)
    presets

let test_warm_cold_identical_real_memory () =
  (* the stall cycles of the memory simulation are cached too *)
  let suite = List.init 6 gen_loop in
  let config = Hcrf_model.Presets.published "4C32S16" in
  let scenario = Runner.Real { prefetch = false } in
  let uncached =
    Runner.run_suite ~ctx:(Runner.Ctx.make ~scenario ()) config suite
  in
  let cache = Cache.create () in
  let ctx = Runner.Ctx.make ~scenario ~cache ~jobs:4 () in
  let cold = replayed_aggregate ctx config suite in
  let warm = Runner.run_suite ~ctx config suite in
  check "real-memory warm aggregate is byte-identical to cold" true
    (String.equal (bytes_of cold) (bytes_of warm));
  check "real-memory cached run equals the uncached run" true
    (String.equal (bytes_of (scrub uncached)) (bytes_of (scrub warm)));
  check "stall cycles survived the cache" true (warm.Metrics.stall > 0.)

(* ------------------------------------------------------------------ *)
(* Replayed outcomes are valid schedules *)

let prop_replay_validates =
  QCheck.Test.make ~name:"replayed outcomes pass Validate.check" ~count:12
    QCheck.(int_range 0 11)
    (fun i ->
      let l = nth_loop i in
      let config =
        Hcrf_model.Presets.published
          (List.nth presets (i mod List.length presets))
      in
      let cache = Cache.create () in
      let ctx = Runner.Ctx.make ~cache () in
      match Runner.run_loop ~ctx config l with
      | None -> QCheck.assume_fail () (* nothing cached to replay *)
      | Some _ -> (
        match Runner.run_loop ~ctx config l with
        | None -> false
        | Some r ->
          let o = r.Runner.outcome in
          (Cache.stats cache).Cache.hits = 1
          && Hcrf_sched.Validate.check
               ~invariant_residents:o.Hcrf_sched.Engine.invariant_residents
               o.Hcrf_sched.Engine.schedule o.Hcrf_sched.Engine.graph
             = []))

(* Under binding prefetch the engine schedules prefetched loads with the
   miss latency; a replayed outcome must carry that latency table, or
   the validator reads every prefetched value's lifetime with the hit
   latency and rejects the schedule as over capacity. *)
let test_prefetch_replay_validates () =
  let loops = Hcrf_workload.Suite.generate ~n:12 () in
  let ctx = Runner.Ctx.make ~scenario:(Runner.Real { prefetch = true }) () in
  let outcomes =
    List.concat_map
      (fun config ->
        List.map (fun l -> Runner.run_loop ~ctx config l) loops)
      (Experiments.figure6_configs ())
  in
  check_int "12 loops x 7 configurations" 84 (List.length outcomes);
  check_int "every replayed outcome validates" 0
    (List.length
       (List.filter
          (function
            | Some r -> not (Hcrf_core.Mirs_hc.is_valid r.Runner.outcome)
            | None -> true)
          outcomes))

(* The engine's outcome and its replay through an entry, for suite
   loops on [configs] under ideal memory and binding prefetch. *)
let engine_and_replayed ~n configs =
  let module E = Hcrf_sched.Engine in
  let loops = Hcrf_workload.Suite.generate ~n () in
  List.concat_map
    (fun name ->
      let config = Hcrf_model.Presets.published name in
      List.concat_map
        (fun (l : Loop.t) ->
          List.filter_map
            (fun override ->
              let opts =
                { E.default_options with E.load_override = override }
              in
              match E.schedule ~opts config l.Loop.ddg with
              | Error _ -> None
              | Ok o -> (
                match Entry.of_outcome o ~stall_cycles:0. ~retries:0 with
                | Entry.Scheduled s ->
                  Some (name, l, o, Entry.to_outcome config s.outcome)
                | Entry.Failed _ -> None))
            [ Hcrf_memsim.Prefetch.none; Hcrf_memsim.Prefetch.plan config l ])
        loops)
    configs

(* An outcome keeps the product only: its schedule's reachable words
   are three int columns sized by the graph's id counter plus a fixed
   part (decode tables, the configuration and the latency table), at
   most 21 words per id on these 6- to 14-node loops.  A reservation
   table with its occupant stacks, or a 256-cell arena buffer, is
   several times more. *)
let test_outcomes_stay_small () =
  let words (o : Hcrf_sched.Engine.outcome) =
    Obj.reachable_words (Obj.repr o.Hcrf_sched.Engine.schedule)
  in
  let items = engine_and_replayed ~n:12 [ "8C16S16"; "S64" ] in
  check_int "12 loops x 2 configs x 2 memory scenarios" 48
    (List.length items);
  List.iter
    (fun (name, (l : Loop.t), o, r) ->
      let bound = 24 * Ddg.next_id o.Hcrf_sched.Engine.graph in
      List.iter
        (fun (what, o) ->
          if words o > bound then
            Alcotest.failf "%s on %s: %s schedule takes %d words > %d"
              (Loop.name l) name what (words o) bound)
        [ ("engine", o); ("replayed", r) ])
    items

(* Replaying an entry restores the engine's outcome: every node's
   cycle, location and definition bank, the stage count, the invariant
   residents of every bank and the graph. *)
let test_replay_equals_engine () =
  let module S = Hcrf_sched.Schedule in
  let module E = Hcrf_sched.Engine in
  let items =
    engine_and_replayed ~n:12 [ "S64"; "2C32"; "4C16S16"; "8C16S16" ]
  in
  List.iter
    (fun (name, (l : Loop.t), (o : E.outcome), (r : E.outcome)) ->
      let what = Fmt.str "%s on %s" (Loop.name l) name in
      let config = Hcrf_model.Presets.published name in
      Ddg.iter_nodes o.E.graph (fun n ->
          let v = n.Ddg.id in
          if
            S.entry o.E.schedule v <> S.entry r.E.schedule v
            || S.def_bank o.E.schedule o.E.graph v
               <> S.def_bank r.E.schedule r.E.graph v
          then Alcotest.failf "%s: node %d differs" what v);
      check_int (what ^ ": stage count") (S.stage_count o.E.schedule)
        (S.stage_count r.E.schedule);
      check_int (what ^ ": sc") o.E.sc r.E.sc;
      List.iter
        (fun b ->
          let i = Hcrf_sched.Topology.bank_code config b in
          check_int (what ^ ": residents") o.E.invariant_residents.(i)
            r.E.invariant_residents.(i))
        (Hcrf_sched.Topology.all_banks config);
      check (what ^ ": graph") true
        (Ddg.to_repr o.E.graph = Ddg.to_repr r.E.graph);
      check (what ^ ": replay validates") true (Hcrf_core.Mirs_hc.is_valid r))
    items

(* Duplicates coalesce only when their node ids match: a renumbered twin
   has another key and gets its own engine run, or it would replay an
   entry bound to the other loop's ids. *)
let test_coalescing_respects_node_ids () =
  let config = Hcrf_model.Presets.published "4C32" in
  let l = nth_loop 3 in
  let twin =
    Hcrf_check.Morph.rewrite_loop
      ~m:(Hcrf_check.Morph.reversing_bijection l.Loop.ddg) l
  in
  let key = Runner.cache_key ~scenario:Runner.Ideal
      ~opts:Hcrf_sched.Engine.default_options config in
  check "twin has another key" false (Fingerprint.equal (key l) (key twin));
  let _, s =
    Runner.run_pipeline config [ l; twin; l ]
  in
  check_int "loop and twin computed" 2 s.Runner.computed;
  check_int "the repeated loop coalesced" 1 s.Runner.coalesced

(* A loop and its renumbered twin, run a, b, a, b through one cache:
   each keeps its own entry, so the second round hits twice. *)
let test_twins_do_not_evict () =
  let config = Hcrf_model.Presets.published "4C32" in
  let a = List.hd (Hcrf_workload.Suite.generate ~n:1 ()) in
  let b =
    Hcrf_check.Morph.rewrite_loop
      ~m:(Hcrf_check.Morph.reversing_bijection a.Loop.ddg) a
  in
  let cache = Cache.create () in
  let ctx = Runner.Ctx.make ~cache () in
  List.iter (fun l -> ignore (Runner.run_loop ~ctx config l)) [ a; b; a; b ];
  let s = Cache.stats cache in
  check_int "runner: hits" 2 s.Cache.hits;
  check_int "runner: misses" 2 s.Cache.misses;
  let tiers = Hcrf_server.Tiers.create ~lru_capacity:4 ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Hcrf_server.Tiers.shutdown tiers)
  @@ fun () ->
  List.iter
    (fun l ->
      ignore
        (Hcrf_server.Tiers.schedule tiers
           (Hcrf_server.Wire.request_of_loop ~config
              ~opts:Hcrf_sched.Engine.default_options
              ~scenario:Runner.Ideal l)))
    [ a; b; a; b ];
  let s = Hcrf_server.Tiers.stats tiers in
  check_int "tiers: computed" 2 s.Hcrf_server.Wire.computed;
  check_int "tiers: LRU hits" 2 s.Hcrf_server.Wire.lru_hits

(* The engine numbers the nodes it inserts from the graph's id counter,
   so a loop whose counter is raised gets a different schedule entry.
   Replayed warm after its original, it must answer its own cold entry,
   not the original's. *)
let test_id_counter_reaches_the_key () =
  let config = Hcrf_model.Presets.published "4C16S16" in
  let l = List.hd (Hcrf_workload.Suite.generate ~n:1 ()) in
  let twin = with_counters ~ids:7 l in
  let bytes (r : Runner.loop_result option) =
    match r with
    | None -> Alcotest.fail "not scheduled"
    | Some r -> (
      match
        Entry.of_outcome r.Runner.outcome ~stall_cycles:0. ~retries:0
      with
      | Entry.Scheduled s ->
        Marshal.to_string { s.outcome with Entry.s_seconds = 0. } []
      | Entry.Failed _ -> Alcotest.fail "not scheduled")
  in
  let ctx = Runner.Ctx.make ~cache:(Cache.create ()) () in
  ignore (Runner.run_loop ~ctx config l);
  let warm = bytes (Runner.run_loop ~ctx config twin) in
  check "twin's warm entry = its own cold entry" true
    (String.equal warm (bytes (Runner.run_loop config twin)));
  check "and differs from the original's" false
    (String.equal warm (bytes (Runner.run_loop config l)))

(* ------------------------------------------------------------------ *)
(* On-disk robustness *)

let temp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "hcrf-cache-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* every entry file under [dir], shard subdirectories included *)
let entry_files dir =
  let rec walk d =
    Sys.readdir d |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix f ".hcrf" then [ p ]
           else [])
  in
  walk dir

let test_disk_roundtrip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let l = nth_loop 0 in
  let config = Hcrf_model.Presets.published "4C32" in
  let c1 = Cache.create ~dir () in
  Alcotest.(check (option string)) "directory in use" (Some dir) (Cache.dir c1);
  let r1 = Runner.run_loop ~ctx:(Runner.Ctx.make ~cache:c1 ()) config l in
  check "scheduled" true (r1 <> None);
  check_int "one entry file on disk" 1 (List.length (entry_files dir));
  (* a fresh cache instance sees the entry through the store *)
  let c2 = Cache.create ~dir () in
  let r2 = Runner.run_loop ~ctx:(Runner.Ctx.make ~cache:c2 ()) config l in
  let s2 = Cache.stats c2 in
  check_int "disk hit" 1 s2.Cache.disk_hits;
  check_int "no recompute" 0 s2.Cache.misses;
  check "disk replay equals the live result" true
    (match (r1, r2) with
    | Some a, Some b ->
      String.equal
        (Marshal.to_string a.Runner.perf [])
        (Marshal.to_string b.Runner.perf [])
    | _ -> false)

let test_disk_corruption_recovers () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let l = nth_loop 1 in
  let config = Hcrf_model.Presets.published "4C32" in
  let fresh = Runner.run_loop config l in
  let populate () =
    let ctx = Runner.Ctx.make ~cache:(Cache.create ~dir ()) () in
    ignore (Runner.run_loop ~ctx config l)
  in
  let corrupt bytes =
    match entry_files dir with
    | [ f ] ->
      let oc = open_out_bin f in
      output_string oc bytes;
      close_out oc
    | files -> Alcotest.failf "expected 1 entry file, found %d" (List.length files)
  in
  List.iter
    (fun (what, bytes) ->
      populate ();
      corrupt bytes;
      let c = Cache.create ~dir () in
      let r = Runner.run_loop ~ctx:(Runner.Ctx.make ~cache:c ()) config l in
      let s = Cache.stats c in
      check (what ^ ": treated as a miss") true
        (s.Cache.misses = 1 && s.Cache.hits = 0);
      check (what ^ ": counted as a disk error") true (s.Cache.disk_errors >= 1);
      (* both sides are live computations, so scrub the wall-clock *)
      let scrub_perf (p : Metrics.loop_perf) =
        { p with Metrics.sched_seconds = 0. }
      in
      check (what ^ ": recomputed result matches the uncached one") true
        (match (fresh, r) with
        | Some a, Some b ->
          String.equal
            (Marshal.to_string (scrub_perf a.Runner.perf) [])
            (Marshal.to_string (scrub_perf b.Runner.perf) [])
        | _ -> false))
    [ ("truncated", "hcrf");
      ("garbage", "this is definitely not a cache entry\n");
      ("stale version", "hcrf-cache 0\n" ^ String.make 48 'x') ]

(* v3 layout: every new write lands in the shard subdirectory named by
   the leading hex nibble of its key. *)
let test_store_sharded_layout () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = Hcrf_model.Presets.published "4C32" in
  let ctx = Runner.Ctx.make ~cache:(Cache.create ~dir ()) () in
  List.iteri
    (fun i _ -> ignore (Runner.run_loop ~ctx config (nth_loop i)))
    [ (); (); (); (); (); (); (); () ];
  let files = entry_files dir in
  check "several entries written" true (List.length files >= 8);
  List.iter
    (fun f ->
      let shard = Filename.basename (Filename.dirname f) in
      let nibble = String.sub (Filename.basename f) 0 1 in
      Alcotest.(check string)
        (Fmt.str "%s sits in its nibble's shard" (Filename.basename f))
        nibble shard)
    files

(* Entries of older store versions are stale: a sharded entry under
   version [v]'s magic fails the magic test and is recomputed over, and
   a v2 entry in the flat pre-sharding layout is not even looked for. *)
let check_stale_version v =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let l = nth_loop 3 in
  let config = Hcrf_model.Presets.published "4C32" in
  let run c = Runner.run_loop ~ctx:(Runner.Ctx.make ~cache:c ()) config l in
  let fresh = run (Cache.create ~dir ()) in
  let sharded =
    match entry_files dir with
    | [ f ] -> f
    | files -> Alcotest.failf "expected 1 entry, found %d" (List.length files)
  in
  let content =
    let ic = open_in_bin sharded in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* same payload bytes under an older magic *)
  let demote v =
    let magic = Fmt.str "hcrf-cache %d\n" v in
    magic
    ^ String.sub content (String.length magic)
        (String.length content - String.length magic)
  in
  let write p bytes =
    let oc = open_out_bin p in
    output_string oc bytes;
    close_out oc
  in
  write sharded (demote v);
  write (Filename.concat dir (Filename.basename sharded)) (demote 2);
  let c = Cache.create ~dir () in
  let r = run c in
  let scrub (r : Runner.loop_result option) =
    Option.map
      (fun r -> { r.Runner.perf with Metrics.sched_seconds = 0. })
      r
  in
  check "recomputed result matches the fresh one" true
    (Marshal.to_string (scrub r) [] = Marshal.to_string (scrub fresh) []);
  let s = Cache.stats c in
  check_int "no disk hit" 0 s.Cache.disk_hits;
  check_int (Fmt.str "the stale v%d entry is a disk error" v) 1
    s.Cache.disk_errors;
  check_int "recomputed and stored" 1 s.Cache.stores;
  (* the recomputed entry overwrote the stale one *)
  let c' = Cache.create ~dir () in
  ignore (run c');
  check_int "the rewritten entry disk-hits" 1 (Cache.stats c').Cache.disk_hits

(* v3 entries lack the load-latency snapshot *)
let test_store_old_versions_stale () = check_stale_version 3

(* v4 entries were stored under id-blind keys and carry an id digest *)
let test_store_v4_stale () = check_stale_version 4

(* v5 entries store a placement list to replay, not schedule columns *)
let test_store_v5_stale () = check_stale_version 5

(* v6 entries were filed under keys of the decimal text encoding *)
let test_store_v6_stale () = check_stale_version 6

(* Loop and kernel transcripts are pinned: these values predate the
   shared transcript writer and must not move with it. *)
let test_transcripts_pinned () =
  Alcotest.(check string) "daxpy loop fingerprint"
    "80280d841f83b34384ba38d931b89046"
    (hex (Fingerprint.of_loop (Hcrf_workload.Kernels.daxpy ())));
  Alcotest.(check string) "first Progs kernel's AST digest"
    "db20b60ca53afc6b28658a134ba92d3f"
    (Digest.to_hex
       (Hcrf_frontend.Ast.digest (List.hd (Hcrf_incr.Progs.program ~n:6))))

(* Corrupting an entry in one shard must only cost that shard's entry:
   every other shard still serves disk hits. *)
let test_corruption_per_shard () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = Hcrf_model.Presets.published "4C32" in
  let loops = List.init 12 nth_loop in
  let populate = Runner.Ctx.make ~cache:(Cache.create ~dir ()) () in
  List.iter (fun l -> ignore (Runner.run_loop ~ctx:populate config l)) loops;
  let files = entry_files dir in
  let shard_of f = Filename.basename (Filename.dirname f) in
  let occupied = List.sort_uniq String.compare (List.map shard_of files) in
  check "entries scatter over several shards" true (List.length occupied >= 3);
  (* corrupt exactly one entry per occupied shard *)
  let corrupted =
    List.map
      (fun sh -> List.find (fun f -> shard_of f = sh) files)
      occupied
  in
  List.iter
    (fun f ->
      let oc = open_out_bin f in
      output_string oc "corrupted beyond the header";
      close_out oc)
    corrupted;
  let c = Cache.create ~dir () in
  List.iter (fun l -> ignore (Runner.run_loop ~ctx:(Runner.Ctx.make ~cache:c ()) config l)) loops;
  let s = Cache.stats c in
  check_int "each corrupted shard entry recomputes once"
    (List.length corrupted) s.Cache.disk_errors;
  check_int "every other entry still disk-hits"
    (List.length files - List.length corrupted)
    s.Cache.disk_hits

let test_unusable_dir_degrades () =
  (* a path under a regular file can never become a directory *)
  let file = Filename.temp_file "hcrf-cache-test" ".blocker" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let c = Cache.create ~dir:(Filename.concat file "sub") () in
  Alcotest.(check (option string))
    "degraded to in-memory-only" None (Cache.dir c);
  let l = nth_loop 2 in
  let config = Hcrf_model.Presets.published "S64" in
  let ctx = Runner.Ctx.make ~cache:c () in
  check "still schedules" true (Runner.run_loop ~ctx config l <> None);
  check "still caches in memory" true
    (Runner.run_loop ~ctx config l <> None);
  check_int "memory hit" 1 (Cache.stats c).Cache.hits

(* ------------------------------------------------------------------ *)
(* The carried key *)

(* A loop carries the key its first read computed, so a graph mutated
   after that read would be filed under a stale key.  Run every kind of
   loop the system hands the runner — the tab6 suite at 20 loops, every
   kernel, a [Progs] program and one edit through [Pipeline.eval], the
   [.repro] corpus, a seed-42 fuzz campaign and the [Shrink] candidates
   of its cases — then check that each carried key is still the one a
   fresh rebuild of the loop computes. *)
let test_no_stale_key () =
  let module Check = Hcrf_check.Check in
  let module Shrink = Hcrf_check.Shrink in
  let config = Hcrf_model.Presets.published "4C32S16" in
  let prefetch =
    Runner.Ctx.make ~scenario:(Runner.Real { prefetch = true }) ()
  in
  let suite = Hcrf_workload.Suite.generate ~n:20 () in
  ignore (Experiments.table6 ~loops:suite ());
  let kernels = Hcrf_workload.Suite.kernels () in
  ignore (Runner.run_suite ~ctx:prefetch config kernels);
  let memo = Memo.create () in
  let pipe =
    Hcrf_incr.Pipeline.create
      ~ctx:{ prefetch with Runner.Ctx.memo = Some memo } config
  in
  let prog = Hcrf_incr.Progs.program ~n:12 in
  let edited = Hcrf_incr.Progs.edit ~round:1 ~kernel:5 prog in
  ignore (Hcrf_incr.Pipeline.eval pipe prog);
  ignore (Hcrf_incr.Pipeline.eval pipe edited);
  let compiled =
    List.map
      (fun k ->
        fst
          (Memo.find_or_compile memo ~trace:Hcrf_obs.Trace.off
             (Hcrf_frontend.Ast.digest k) (fun () ->
               Alcotest.failf "%s not memoized" k.Hcrf_frontend.Ast.name)))
      (prog @ edited)
  in
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let corpus =
    match Check.replay_corpus dir with
    | Ok rs -> List.map (fun (_, r, _) -> r.Hcrf_check.Repro.loop) rs
    | Error e -> Alcotest.fail e
  in
  (* With the scheduler's fault armed every fuzz case fails, so the
     report hands back each case's loop, and a shrinker that runs the
     oracle on each candidate sees the candidates. *)
  let fuzz, candidates =
    Fun.protect ~finally:(fun () -> Hcrf_sched.Schedule.fault := None)
    @@ fun () ->
    Hcrf_sched.Schedule.fault := Some Hcrf_sched.Schedule.Lax_resources;
    let report = Check.campaign ~shrink:false ~seed:42 ~cases:6 () in
    let fuzz = List.map (fun f -> f.Check.f_loop) report.Check.r_failures in
    let seen = ref [] in
    let still_failing (c : Shrink.candidate) =
      seen := c.Shrink.loop :: !seen;
      Check.is_failure
        (Check.oracle ~opts:Hcrf_sched.Engine.default_options config
           c.Shrink.loop)
          .Check.kind
    in
    List.iter
      (fun loop ->
        ignore
          (Shrink.run ~still_failing ~max_evals:12
             { Shrink.loop; lats = config.Hcrf_machine.Config.lats }))
      (List.filteri (fun i _ -> i < 2) fuzz);
    (fuzz, !seen)
  in
  List.iter
    (fun (what, loops) ->
      check (what ^ ": some loops") true (loops <> []);
      List.iter
        (fun l ->
          check
            (Fmt.str "%s: %s carries its graph's key" what (Loop.name l))
            true
            (Fingerprint.equal (Fingerprint.of_loop l)
               (Fingerprint.of_loop (Loop.of_repr (Loop.to_repr l)))))
        loops)
    [ ("tab6@20", suite); ("kernels", kernels); ("progs", compiled);
      ("corpus", corpus); ("fuzz", fuzz); ("shrink", candidates) ]

(* The transcript runs on a loop's first key read only: later reads
   return the carried key and allocate nothing. *)
let test_second_key_read_allocates_nothing () =
  let l = Hcrf_workload.Kernels.daxpy () in
  let first = Fingerprint.of_loop l in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do ignore (Sys.opaque_identity (Fingerprint.of_loop l)) done;
  let words = Gc.minor_words () -. before in
  check (Fmt.str "100 more reads allocate %.0f words" words) true
    (words < 100.);
  check "the same key" true (Fingerprint.equal first (Fingerprint.of_loop l))

(* A warm suite reads each loop's metrics from its entry: no graph is
   rebuilt and no schedule restored, so the pass stays small. *)
let test_warm_suite_allocates_little () =
  let config = Hcrf_model.Presets.published "4C32S16" in
  let suite = Hcrf_workload.Suite.generate ~n:24 () in
  let ctx = Runner.Ctx.make ~cache:(Cache.create ()) () in
  let cold = Runner.run_suite ~ctx config suite in
  let before = Gc.minor_words () in
  let warm = Runner.run_suite ~ctx config suite in
  let per_loop = (Gc.minor_words () -. before) /. 24. in
  check "warm aggregate equals the cold one" true
    (String.equal (bytes_of cold) (bytes_of warm));
  check (Fmt.str "warm pass allocates %.0f minor words a loop" per_loop) true
    (per_loop < 400.)

(* ------------------------------------------------------------------ *)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_renumbering_sensitive;
    QCheck_alcotest.to_alcotest prop_reordering_invariant;
    ("fingerprint: loop sensitivity", `Quick, test_loop_sensitivity);
    ("fingerprint: config sensitivity", `Quick, test_config_sensitivity);
    ("fingerprint: generalized port/level sensitivity", `Quick,
     test_generalized_config_sensitivity);
    ("fingerprint: options sensitivity", `Quick, test_options_sensitivity);
    ("suite: warm = cold, jobs 1 and 4", `Slow, test_warm_cold_identical);
    ( "suite: warm = cold under real memory", `Slow,
      test_warm_cold_identical_real_memory );
    ("fingerprint: distinct inputs digest apart", `Quick,
     test_digests_distinct);
    ("fingerprint: combine and of_config allocate a bounded number of words",
     `Quick, test_digests_allocate_bounded);
    QCheck_alcotest.to_alcotest prop_replay_validates;
    ("replay: prefetch outcomes validate", `Quick,
     test_prefetch_replay_validates);
    ("replay: outcomes stay small", `Quick, test_outcomes_stay_small);
    ("replay: restores the engine's outcome", `Quick,
     test_replay_equals_engine);
    ("coalescing: renumbered twin computes", `Quick,
     test_coalescing_respects_node_ids);
    ("twins: a, b, a, b hits twice (runner and tiers)", `Quick,
     test_twins_do_not_evict);
    ("fingerprint: id counter reaches the key", `Quick,
     test_id_counter_reaches_the_key);
    ("store: disk roundtrip", `Quick, test_disk_roundtrip);
    ("store: corruption recovers", `Quick, test_disk_corruption_recovers);
    ("store: sharded v3 layout", `Quick, test_store_sharded_layout);
    ("store: v2 and v3 entries are stale", `Quick,
     test_store_old_versions_stale);
    ("store: v4 entries are stale", `Quick, test_store_v4_stale);
    ("store: v5 entries are stale", `Quick, test_store_v5_stale);
    ("store: corruption isolated per shard", `Slow, test_corruption_per_shard);
    ("store: unusable dir degrades", `Quick, test_unusable_dir_degrades);
    ("fingerprint: suite + kernels split as the reference", `Quick,
     test_partition_suite_and_kernels);
    ("fingerprint: Progs kernels split as the reference", `Quick,
     test_partition_progs);
    ("fingerprint: WL collision gets its own schedule", `Quick,
     test_wl_collision_gets_own_schedule);
    ("store: v6 entries are stale", `Quick, test_store_v6_stale);
    ("fingerprint: loop and kernel transcripts pinned", `Quick,
     test_transcripts_pinned);
    ("fingerprint: no carried key goes stale", `Quick, test_no_stale_key);
    ("fingerprint: a second key read allocates nothing", `Quick,
     test_second_key_read_allocates_nothing);
    ("suite: a warm pass allocates under 400 minor words a loop", `Quick,
     test_warm_suite_allocates_little);
  ]
