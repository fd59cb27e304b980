open Hcrf_ir
open Hcrf_sched
module Ev = Hcrf_obs.Event
module Tr = Hcrf_obs.Trace
module Runner = Hcrf_eval.Runner
module Config = Hcrf_machine.Config
module Lat = Hcrf_machine.Latencies
module Genloop = Hcrf_workload.Genloop
module Rng = Hcrf_workload.Rng
module Pipe_exec = Hcrf_pipesim.Pipe_exec
module Exact = Hcrf_exact.Exact
module Presets = Hcrf_model.Presets

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)

let param_presets =
  let d = Genloop.default_params in
  [
    ("tiny", { d with Genloop.min_ops = 3; max_ops = 8; size_mu = 1.5 });
    ("small", { d with Genloop.max_ops = 16 });
    ( "recurrent",
      { d with
        Genloop.recurrence_prob = 0.9;
        max_recurrences = 4;
        rec_max_distance = 3;
        max_ops = 20 } );
    ( "memory",
      { d with
        Genloop.mem_fraction = 0.5;
        store_fraction = 0.5;
        mem_rec_fraction = 0.7;
        max_ops = 20 } );
    ("invariant", { d with Genloop.invariant_max = 6; max_ops = 14 });
    ( "wide",
      { d with
        Genloop.fanin2_prob = 0.9;
        far_pick_prob = 0.5;
        max_ops = 24 } );
  ]

(* Exact-tractable loops for the Optimality oracle: small DAG-ish
   bodies whose certification fits comfortably in the default exact
   budget.  Kept out of [param_presets] so the long-standing campaign
   case mapping is untouched. *)
let small_exact_presets =
  let d = Genloop.default_params in
  [
    ( "small_exact",
      { d with Genloop.min_ops = 3; max_ops = 8; size_mu = 1.5;
        invariant_max = 2 } );
  ]

(* Published Table-5 points spanning monolithic, flat clustered and
   hierarchical organizations. *)
let config_names =
  [ "S64"; "S32"; "2C32"; "4C32"; "2C32S32"; "4C32S16"; "4C16S16"; "8C16S16" ]

(* Generalized-hierarchy points: per-bank access-port constraints.  Kept
   out of [config_names] so the long-standing campaign case-index
   mapping is untouched; campaigns opt in via
   [generalized_config_presets]. *)
let generalized_config_names =
  [ "4C16S16@r4w3"; "4C16S16@Sr3w3"; "2C32S32@r5w4"; "2C32@r5w4" ]

let options_presets =
  let d = Engine.default_options in
  [
    ("default", d);
    ("nobt", { d with Engine.backtracking = false });
    ("topo", { d with Engine.ordering = `Topological });
    ("tight", { d with Engine.budget_ratio = 3 });
  ]

let presets names = List.map (fun n -> (n, Presets.of_notation n)) names
let default_config_presets = lazy (presets config_names)
let generalized_config_presets = lazy (presets generalized_config_names)

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)

type case = {
  index : int;
  seed : int;
  params_name : string;
  config_name : string;
  config : Config.t;
  options_name : string;
  opts : Engine.options;
  loop : Loop.t;
}

(* SplitMix-style per-case seed: decorrelates neighbouring indices and
   keeps every case independent of campaign size and job count. *)
let case_seed ~seed index =
  let h = (seed * 0x1000193) + (index * 0x9E3779B1) in
  (h lxor (h lsr 17)) land 0x3FFFFFFF

let case_of_index ?(param_presets = param_presets) ~config_presets ~seed index
    =
  let nth l i = List.nth l (i mod List.length l) in
  let params_name, params = nth param_presets index in
  let config_name, config =
    nth config_presets (index / List.length param_presets)
  in
  let options_name, opts =
    nth options_presets
      (index / (List.length param_presets * List.length config_presets))
  in
  let rng = Rng.create ~seed:(case_seed ~seed index) in
  let loop = Genloop.generate ~params ~rng ~index () in
  { index; seed; params_name; config_name; config; options_name; opts; loop }

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

type verdict = { kind : Ev.fuzz_verdict; detail : string }

let pass = { kind = Ev.Pass; detail = "" }

let is_failure = function
  | Ev.Pass | Ev.No_schedule -> false
  | Ev.Invalid_schedule | Ev.Exec_mismatch | Ev.Metamorphic
  | Ev.Replay_divergence | Ev.Crash | Ev.Optimality ->
    true

(* What the Optimality leg measured on one case (reported even when the
   leg passes — the campaign aggregates these into the gap summary). *)
type exact_case = {
  xc_lb : int;  (** certified II lower bound *)
  xc_exhausted : bool;
  xc_witness_ii : int option;
  xc_optimal : bool;  (** minimal II certified exactly *)
  xc_heur_ii : int;
  xc_heur_spills : int;  (** heuristic value + invariant spills *)
  xc_budget_hit : bool;
}

let fail kind fmt = Fmt.kstr (fun detail -> Error { kind; detail }) fmt

let exec_iterations = [ 2; 7; 13 ]

(* Closure-free byte snapshot of a runner result: the serialized cache
   entry (graph, schedule columns, counters) plus the derived metrics.  A
   warm replay must reproduce this exactly. *)
let snapshot (r : Runner.loop_result) =
  Marshal.to_string
    ( Hcrf_cache.Entry.of_outcome r.Runner.outcome ~stall_cycles:0.,
      r.Runner.perf )
    []

let issues_of (r : Runner.loop_result) =
  let o = r.Runner.outcome in
  Validate.check o.Engine.schedule o.Engine.graph

let oracle ?cache ?(exact = false) ?exact_out ?(trace = Tr.off) ~opts config
    (loop : Loop.t) : verdict =
  let ( let* ) = Result.bind in
  let run () =
    let cache =
      match cache with Some c -> c | None -> Hcrf_cache.Cache.create ()
    in
    let ctx = Runner.Ctx.make ~opts ~cache () in
    let validate_leg kind name r =
      match issues_of r with
      | [] -> Ok ()
      | issue :: _ as issues ->
        fail kind "%s: %d issue(s), first: %a" name (List.length issues)
          Validate.pp_issue issue
    in
    let exec_leg kind name lp (r : Runner.loop_result) iters =
      List.fold_left
        (fun acc n ->
          let* () = acc in
          match Pipe_exec.check lp r.Runner.outcome ~iterations:n () with
          | Ok _ -> Ok ()
          | Error e ->
            fail kind "%s: %a (at %d iterations)" name Pipe_exec.pp_error e n)
        (Ok ()) iters
    in
    (* leg 1: the schedule exists *)
    let* cold =
      match Runner.run_loop ~ctx config loop with
      | Some r -> Ok r
      | None -> fail Ev.No_schedule "engine gave up after its escalation"
    in
    (* leg 2: independent validation *)
    let* () = validate_leg Ev.Invalid_schedule "cold" cold in
    (* leg 3: pipeline execution matches the reference executor *)
    let* () = exec_leg Ev.Exec_mismatch "cold" loop cold exec_iterations in
    (* leg 4: warm replay through the cache is byte-identical *)
    let* warm =
      match Runner.run_loop ~ctx config loop with
      | Some r -> Ok r
      | None -> fail Ev.Replay_divergence "warm run found no schedule"
    in
    let* () = validate_leg Ev.Replay_divergence "replayed" warm in
    let* () =
      if String.equal (snapshot cold) (snapshot warm) then Ok ()
      else fail Ev.Replay_divergence "warm replay differs from cold outcome"
    in
    (* leg 5: metamorphic twins through the same cache *)
    let mii = cold.Runner.outcome.Engine.mii in
    let twin_leg name twin =
      let* rt =
        match Runner.run_loop ~ctx config twin with
        | Some r -> Ok r
        | None -> fail Ev.Metamorphic "%s twin: failed to schedule" name
      in
      let* () =
        match issues_of rt with
        | [] -> Ok ()
        | issue :: _ ->
          fail Ev.Metamorphic "%s twin: invalid schedule: %a" name
            Validate.pp_issue issue
      in
      let* () =
        let tm = rt.Runner.outcome.Engine.mii in
        if tm = mii then Ok ()
        else fail Ev.Metamorphic "%s twin: MII changed %d -> %d" name mii tm
      in
      match Pipe_exec.check twin rt.Runner.outcome ~iterations:7 () with
      | Ok _ -> Ok ()
      | Error e ->
        fail Ev.Metamorphic "%s twin: %a" name Pipe_exec.pp_error e
    in
    let reorder = Morph.rewrite_loop ~m:Fun.id loop in
    let* () =
      (* reordering adjacency lists must not move the cache key: the
         cache replays the cold entry for this twin *)
      let key = Runner.cache_key ~scenario:Runner.Ideal ~opts config in
      if Hcrf_cache.Fingerprint.equal (key reorder) (key loop) then Ok ()
      else fail Ev.Metamorphic "reorder twin: cache key changed"
    in
    let* () = twin_leg "reorder" reorder in
    let renumber =
      Morph.rewrite_loop ~m:(Morph.reversing_bijection loop.Loop.ddg) loop
    in
    let* () = twin_leg "renumber" renumber in
    (* leg 6: the heuristic must never beat the certified II bound *)
    let* () =
      if not exact then Ok ()
      else begin
        let o = cold.Runner.outcome in
        let r = Exact.solve ~up_to:o.Engine.ii ~trace config loop.Loop.ddg in
        (match exact_out with
        | None -> ()
        | Some cell ->
          cell :=
            Some
              {
                xc_lb = r.Exact.x_lb;
                xc_exhausted = r.Exact.x_lb_exhausted;
                xc_witness_ii =
                  Option.map
                    (fun (w : Exact.witness) -> w.Exact.w_ii)
                    r.Exact.x_witness;
                xc_optimal = r.Exact.x_optimal;
                xc_heur_ii = o.Engine.ii;
                xc_heur_spills =
                  o.Engine.stats.Engine.value_spills
                  + o.Engine.stats.Engine.invariant_spills;
                xc_budget_hit = r.Exact.x_budget_hit;
              });
        if r.Exact.x_lb_exhausted && o.Engine.ii < r.Exact.x_lb then
          fail Ev.Optimality
            "heuristic II=%d beats the certified lower bound %d" o.Engine.ii
            r.Exact.x_lb
        else Ok ()
      end
    in
    Ok ()
  in
  match run () with
  | Ok () -> pass
  | Error v -> v
  | exception e ->
    { kind = Ev.Crash;
      detail = Printexc.to_string e }

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

type failure = {
  f_case : int;
  f_params : string;
  f_config : string;
  f_options : string;
  f_kind : Ev.fuzz_verdict;
  f_detail : string;
  f_loop : Loop.t;
  f_lats : Lat.t;
  f_nodes : int;
  f_steps : int;
}

(* Aggregate view of the Optimality legs of a campaign (only the cases
   where the heuristic found a schedule run the leg). *)
type exact_summary = {
  xs_cases : int;  (** cases the exact leg ran on *)
  xs_certified : int;  (** minimal II certified exactly *)
  xs_budget : int;  (** budget trips (uncertified cases) *)
  xs_gaps : (int * int) list;  (** II gap -> count, over certified cases *)
  xs_spills : int;  (** heuristic spills on certified cases (witness: 0) *)
}

type report = {
  r_seed : int;
  r_cases : int;
  r_counts : (string * int) list;
  r_failures : failure list;
  r_exact : exact_summary option;
}

let all_verdicts =
  [ Ev.Pass; Ev.No_schedule; Ev.Invalid_schedule; Ev.Exec_mismatch;
    Ev.Metamorphic; Ev.Replay_divergence; Ev.Crash; Ev.Optimality ]

let run_case ~trace ~shrink ~max_shrink_evals ~exact (c : case) =
  let exact_out = ref None in
  let v = oracle ~exact ~exact_out ~trace ~opts:c.opts c.config c.loop in
  if Tr.enabled trace then Tr.emit trace (Ev.Fuzz v.kind);
  if not (is_failure v.kind) then (c, v, None, !exact_out)
  else begin
    let base = { Shrink.loop = c.loop; lats = c.config.Config.lats } in
    let still_failing (cand : Shrink.candidate) =
      let config = { c.config with Config.lats = cand.Shrink.lats } in
      let v' = oracle ~exact ~opts:c.opts config cand.Shrink.loop in
      v'.kind = v.kind
    in
    let shrunk, steps =
      if shrink then Shrink.run ~still_failing ~max_evals:max_shrink_evals base
      else (base, 0)
    in
    if shrink && Tr.enabled trace then Tr.emit trace (Ev.Shrink { steps });
    (* re-run once on the minimum to report its (final) detail *)
    let final =
      let config = { c.config with Config.lats = shrunk.Shrink.lats } in
      let v' = oracle ~exact ~opts:c.opts config shrunk.Shrink.loop in
      if v'.kind = v.kind then v' else v
    in
    (c, final, Some (shrunk, steps), !exact_out)
  end

let failure_of (c, (v : verdict), shrunk) =
  let cand, steps =
    match shrunk with
    | Some (s, steps) -> (s, steps)
    | None -> ({ Shrink.loop = c.loop; lats = c.config.Config.lats }, 0)
  in
  {
    f_case = c.index;
    f_params = c.params_name;
    f_config = c.config_name;
    f_options = c.options_name;
    f_kind = v.kind;
    f_detail = v.detail;
    f_loop = cand.Shrink.loop;
    f_lats = cand.Shrink.lats;
    f_nodes = Ddg.num_nodes cand.Shrink.loop.Loop.ddg;
    f_steps = steps;
  }

let repro_of_failure ~seed (c : case) f =
  {
    Repro.seed;
    case = f.f_case;
    params = f.f_params;
    config = f.f_config;
    n_fus = c.config.Config.n_fus;
    n_mem_ports = c.config.Config.n_mem_ports;
    lats = f.f_lats;
    options = f.f_options;
    verdict = f.f_kind;
    detail = f.f_detail;
    loop = f.f_loop;
  }

let campaign ?(ctx = Runner.Ctx.default) ?(shrink = true) ?corpus
    ?config_presets ?param_presets ?(exact = false) ?(max_shrink_evals = 500)
    ~seed ~cases () =
  let config_presets =
    match config_presets with
    | Some l -> l
    | None -> Lazy.force default_config_presets
  in
  let results =
    Runner.par_map ~ctx
      ~label:(fun i -> Fmt.str "fuzz%04d" i)
      (fun ~trace i ->
        let c = case_of_index ?param_presets ~config_presets ~seed i in
        run_case ~trace ~shrink ~max_shrink_evals ~exact c)
      (List.init cases Fun.id)
  in
  let count k =
    List.length
      (List.filter (fun (_, (v : verdict), _, _) -> v.kind = k) results)
  in
  let r_counts =
    List.map (fun k -> (Ev.fuzz_verdict_name k, count k)) all_verdicts
  in
  let r_failures =
    List.filter_map
      (fun (c, v, shrunk, _) ->
        if is_failure v.kind then Some (failure_of (c, v, shrunk)) else None)
      results
  in
  let r_exact =
    if not exact then None
    else begin
      let xs = List.filter_map (fun (_, _, _, x) -> x) results in
      let certified = List.filter (fun x -> x.xc_optimal) xs in
      let xs_gaps =
        List.sort compare
          (List.fold_left
             (fun acc x ->
               let g = x.xc_heur_ii - x.xc_lb in
               match List.assoc_opt g acc with
               | Some n -> (g, n + 1) :: List.remove_assoc g acc
               | None -> (g, 1) :: acc)
             [] certified)
      in
      Some
        {
          xs_cases = List.length xs;
          xs_certified = List.length certified;
          xs_budget =
            List.length (List.filter (fun x -> x.xc_budget_hit) xs);
          xs_gaps;
          xs_spills =
            List.fold_left (fun acc x -> acc + x.xc_heur_spills) 0 certified;
        }
    end
  in
  (match corpus with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (c, (v : verdict), shrunk, _) ->
        if is_failure v.kind then
          ignore
            (Repro.write ~dir
               (repro_of_failure ~seed c (failure_of (c, v, shrunk)))))
      results);
  { r_seed = seed; r_cases = cases; r_counts; r_failures; r_exact }

let pp_report ppf r =
  Fmt.pf ppf "fuzz: seed=%d cases=%d failures=%d@," r.r_seed r.r_cases
    (List.length r.r_failures);
  Fmt.pf ppf "verdicts:%a@,"
    (Fmt.list ~sep:Fmt.nop (fun ppf (name, n) -> Fmt.pf ppf " %s=%d" name n))
    r.r_counts;
  (match r.r_exact with
  | None -> ()
  | Some s ->
    Fmt.pf ppf "exact: cases=%d certified=%d budget_hit=%d heur_spills=%d \
                gaps:%a@,"
      s.xs_cases s.xs_certified s.xs_budget s.xs_spills
      (Fmt.list ~sep:Fmt.nop (fun ppf (g, n) -> Fmt.pf ppf " %d=%d" g n))
      s.xs_gaps);
  List.iter
    (fun f ->
      Fmt.pf ppf
        "fail: case=%04d verdict=%s params=%s config=%s options=%s nodes=%d \
         steps=%d detail=%s@,"
        f.f_case
        (Ev.fuzz_verdict_name f.f_kind)
        f.f_params f.f_config f.f_options f.f_nodes f.f_steps f.f_detail)
    r.r_failures

let pp_report ppf r = Fmt.pf ppf "@[<v>%a@]" pp_report r

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)

let replay_file ?cache (r : Repro.t) =
  match
    let config =
      Presets.of_notation ~n_fus:r.Repro.n_fus ~n_mem_ports:r.Repro.n_mem_ports
        r.Repro.config
    in
    let config = { config with Config.lats = r.Repro.lats } in
    let opts =
      match List.assoc_opt r.Repro.options options_presets with
      | Some o -> o
      | None -> Fmt.invalid_arg "unknown options preset %S" r.Repro.options
    in
    oracle ?cache ~opts config r.Repro.loop
  with
  | v -> v
  | exception e -> { kind = Ev.Crash; detail = Printexc.to_string e }

(* ------------------------------------------------------------------ *)
(* Optimality-gap corpus                                               *)

(* Heuristic-vs-certified measurement used both to hunt gap witnesses
   and to replay the committed gap corpus: a plain engine run (no
   escalation, so replay needs no runner state) plus a full
   certification capped at the achieved II.  [Some] iff the loop is
   certified optimal and the heuristic provably missed the optimum. *)
let measure_gap ~opts config (loop : Loop.t) =
  match Engine.schedule ~opts config loop.Loop.ddg with
  | Error _ -> None
  | Ok o ->
    let r = Exact.solve ~up_to:o.Engine.ii config loop.Loop.ddg in
    if r.Exact.x_optimal && o.Engine.ii - r.Exact.x_lb >= 1 then Some (o, r)
    else None

let gap_detail ((o : Engine.outcome), (r : Exact.t)) =
  Fmt.str "gap=%d heur_ii=%d optimal_ii=%d heur_spills=%d"
    (o.Engine.ii - r.Exact.x_lb)
    o.Engine.ii r.Exact.x_lb
    (o.Engine.stats.Engine.value_spills
    + o.Engine.stats.Engine.invariant_spills)

let hunt_gaps ?(max_shrink_evals = 200) ~seed ~cases () =
  let config_presets = Lazy.force default_config_presets in
  let out = ref [] in
  for i = cases - 1 downto 0 do
    let c =
      case_of_index ~param_presets:small_exact_presets ~config_presets ~seed i
    in
    if Option.is_some (measure_gap ~opts:c.opts c.config c.loop) then begin
      let base = { Shrink.loop = c.loop; lats = c.config.Config.lats } in
      let still_failing (cand : Shrink.candidate) =
        let config = { c.config with Config.lats = cand.Shrink.lats } in
        Option.is_some (measure_gap ~opts:c.opts config cand.Shrink.loop)
      in
      let shrunk, _ =
        Shrink.run ~still_failing ~max_evals:max_shrink_evals base
      in
      let config = { c.config with Config.lats = shrunk.Shrink.lats } in
      match measure_gap ~opts:c.opts config shrunk.Shrink.loop with
      | None -> () (* unreachable: shrinking preserves the predicate *)
      | Some m ->
        out :=
          {
            Repro.seed;
            case = c.index;
            params = c.params_name;
            config = c.config_name;
            n_fus = c.config.Config.n_fus;
            n_mem_ports = c.config.Config.n_mem_ports;
            lats = shrunk.Shrink.lats;
            options = c.options_name;
            verdict = Ev.Optimality;
            detail = gap_detail m;
            loop = shrunk.Shrink.loop;
          }
          :: !out
    end
  done;
  !out

let replay_corpus ?cache dir =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc path ->
      let* acc = acc in
      let* r =
        Result.map_error (fun e -> Fmt.str "%s: %s" path e) (Repro.load path)
      in
      Ok ((path, r, replay_file ?cache r) :: acc))
    (Ok []) (Repro.corpus_files dir)
  |> Result.map List.rev
