(** Drive the scheduler (and optionally the memory simulator) over a
    suite of loops for one processor configuration. *)

open Hcrf_ir
open Hcrf_sched
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event

type memory_scenario =
  | Ideal  (** every access hits; no stall cycles (§6.1) *)
  | Real of { prefetch : bool }
      (** cache simulation, optionally with selective binding
          prefetching (§6.2) *)

(** Everything one evaluation run needs, in one record.  Built once,
    passed to every [run_loop]/[run_suite]/[run_pipeline] call — instead
    of threading five optional arguments through every driver. *)
module Ctx = struct
  type t = {
    scenario : memory_scenario;
    opts : Engine.options;
    cache : Hcrf_cache.Cache.t option;
    memo : Memo.t option;
    jobs : int;
    tracer : Hcrf_obs.Tracer.t;
  }

  let default =
    {
      scenario = Ideal;
      opts = Engine.default_options;
      cache = None;
      memo = None;
      jobs = 1;
      tracer = Hcrf_obs.Tracer.null;
    }

  let make ?(scenario = Ideal) ?(opts = Engine.default_options) ?cache
      ?memo ?(jobs = 1) ?(tracer = Hcrf_obs.Tracer.null) () =
    { scenario; opts; cache; memo; jobs; tracer }
end

type loop_result = {
  loop : Loop.t;
  outcome : Engine.outcome;
  perf : Metrics.loop_perf;
}

let spill_slab = 0x4000_0000

(* Memory references of the final graph for the cache simulation.
   Original operations replay their loop streams; spill operations get a
   per-op stack slot (stride 0: same location every iteration). *)
let mem_refs (config : Hcrf_machine.Config.t) (loop : Loop.t)
    (o : Engine.outcome) ~(override : int -> int option) =
  let hit = config.lats.Hcrf_machine.Latencies.mem_read in
  let spill_idx = ref 0 in
  List.filter_map
    (fun v ->
      let kind = Ddg.kind o.Engine.graph v in
      if not (Hcrf_ir.Op.is_memory kind) then None
      else
        let issue = Schedule.cycle_of o.Engine.schedule v in
        let is_load =
          match kind with
          | Op.Load | Op.Spill_load -> true
          | _ -> false
        in
        let base, stride =
          match Loop.stream_for loop v with
          | Some s -> (s.Loop.base, s.Loop.stride)
          | None ->
            incr spill_idx;
            (spill_slab + (64 * !spill_idx), 0)
        in
        let sched_latency =
          if is_load then
            match override v with Some l -> l | None -> hit
          else 0
        in
        Some
          { Hcrf_memsim.Sim.node = v; is_load; issue_offset = issue;
            sched_latency; base; stride })
    (Ddg.nodes o.Engine.graph)

let scenario_tag = function
  | Ideal -> "ideal"
  | Real { prefetch = false } -> "real"
  | Real { prefetch = true } -> "prefetch"

(* The configuration, options and scenario digests are taken once per
   partial application, so [resolve] keys a whole batch from one
   prefix.  [opts.load_override] is *not* sampled: the runner always
   replaces it with the override derived from the scenario and loop,
   both of which the key covers.  The tracer is not part of the key
   either — tracing must never change what is computed. *)
let cache_key ~scenario ~opts config =
  let module F = Hcrf_cache.Fingerprint in
  let config = F.of_config config and options = F.of_options opts
  and scenario = F.of_string (scenario_tag scenario) in
  fun loop -> F.combine [ config; F.of_loop loop; options; scenario ]

(* A [Failed] entry records only the last II tried; whether the engine
   refused the loop before trying any II is read again from the loop. *)
let warn_no_schedule (config : Hcrf_machine.Config.t) loop ii =
  Logs.warn (fun m ->
      m "no schedule for %s on %s%s" (Loop.name loop)
        config.Hcrf_machine.Config.name
        (if Engine.unplaceable config loop.Loop.ddg then
           ": fits at no II: an operation has no location it can issue at"
         else Fmt.str " up to II=%d" ii))

(* The uncached work — schedule (the engine's escalation ladder
   included) and, under a real memory scenario, simulate the stalls —
   packaged as a closure-free cache entry.  This is the single compute
   path shared by [run_loop] and the serving daemon's miss handler, so
   both produce (and persist) identical entries. *)
let compute_entry ?(trace = Tr.off) ~scenario ~opts
    (config : Hcrf_machine.Config.t) (loop : Loop.t) =
  let override =
    match scenario with
    | Real { prefetch = true } -> Hcrf_memsim.Prefetch.plan config loop
    | Ideal | Real { prefetch = false } -> Hcrf_memsim.Prefetch.none
  in
  let opts = { opts with Engine.load_override = override } in
  match Engine.schedule_escalating ~opts ~trace config loop.Loop.ddg with
  | Error (`No_schedule ii) -> Hcrf_cache.Entry.Failed ii
  | Ok outcome ->
    let stall_cycles =
      match scenario with
      | Ideal -> 0.
      | Real _ ->
        let refs = mem_refs config loop outcome ~override in
        let r =
          Tr.span trace Ev.Memsim (fun () ->
              Hcrf_memsim.Sim.run ~ii:outcome.Engine.ii
                ~hit_read:config.lats.Hcrf_machine.Latencies.mem_read
                ~miss_cycles:(Hcrf_machine.Config.miss_cycles config)
                ~n:loop.Loop.trip_count ~e:loop.Loop.entries refs)
        in
        r.Hcrf_memsim.Sim.stall_cycles
    in
    Hcrf_cache.Entry.of_outcome outcome ~stall_cycles

(* A loop's metrics, read from its entry without replaying it; [None]
   for [Failed] entries, with the same warning as a live failure. *)
let perf_of_entry config (loop : Loop.t) = function
  | Hcrf_cache.Entry.Failed ii ->
    warn_no_schedule config loop ii;
    None
  | Hcrf_cache.Entry.Scheduled { outcome; stall_cycles } ->
    Some (Metrics.of_stored ~stall_cycles loop outcome)

(* Replay an entry — fresh or cached, same code either way — into a
   [loop_result]: the metrics of [perf_of_entry] plus the restored
   outcome. *)
let result_of_entry config (loop : Loop.t) entry =
  match (entry, perf_of_entry config loop entry) with
  | Hcrf_cache.Entry.Scheduled { outcome; _ }, Some perf ->
    Some { loop; outcome = Hcrf_cache.Entry.to_outcome config outcome; perf }
  | _ -> None

let entry_compatible (_ : Loop.t) (_ : Hcrf_cache.Entry.t) = true

(** Traced parallel map for drivers that run the engine directly rather
    than through [run_loop]: each work unit gets a trace labelled by
    [label], threaded to [f], and committed in input order. *)
let par_map ~(ctx : Ctx.t) ~label f items =
  let pairs =
    Par.map ~jobs:ctx.Ctx.jobs
      (fun x ->
        let trace =
          Hcrf_obs.Tracer.start ctx.Ctx.tracer ~label:(label x)
        in
        (f ~trace x, trace))
      items
  in
  List.map
    (fun (r, trace) ->
      Hcrf_obs.Tracer.commit ctx.Ctx.tracer trace;
      r)
    pairs

let aggregate config results =
  Metrics.aggregate config (List.map (fun r -> r.perf) results)

(* ------------------------------------------------------------------ *)
(* The answer path                                                     *)

type pipeline_stats = {
  total : int;
  store_hits : int;
  computed : int;
  coalesced : int;
  dirty : string list;
}

(* The one resolver behind [run_pipeline] and [run_loop]:
   the schedule entry of every loop of a batch, in input order, and how
   the batch was answered.  Entries live in one store
   — the context's cache, else the memo's.  Keys, lookups and the
   coalescing of duplicates (same key) run serially in input order, so
   stats and trace counters are identical at any job count; only the
   owners' engine runs fan out on the [Par] pool, and their entries are
   committed to the store serially in input order.  Every key comes
   from one [cache_key] prefix. *)
let resolve ~(ctx : Ctx.t) ~traces config loops =
  let { Ctx.scenario; opts; memo; _ } = ctx in
  let cache =
    match ctx.Ctx.cache with
    | Some _ as c -> c
    | None -> Option.map Memo.cache memo
  in
  let n = Array.length loops in
  let keys = Array.map (cache_key ~scenario ~opts config) loops in
  let entries = Array.make n None in
  let owners = Hashtbl.create 16 in
  let todo = ref [] and joins = ref [] in
  Array.iteri
    (fun i key ->
      entries.(i) <-
        Option.bind cache (fun c ->
            Hcrf_cache.Cache.find ~trace:traces.(i) c key);
      if Option.is_none entries.(i) then
        match Hashtbl.find_opt owners key with
        | Some owner -> joins := (i, owner) :: !joins
        | None ->
          Hashtbl.add owners key i;
          todo := i :: !todo)
    keys;
  let todo = List.rev !todo in
  let fresh =
    Par.map ~jobs:ctx.Ctx.jobs
      (fun i ->
        compute_entry ~trace:traces.(i) ~scenario ~opts config loops.(i))
      todo
  in
  List.iter2
    (fun i entry ->
      Option.iter
        (fun c -> Hcrf_cache.Cache.add ~trace:traces.(i) c keys.(i) entry)
        cache;
      entries.(i) <- Some entry)
    todo fresh;
  List.iter (fun (i, owner) -> entries.(i) <- entries.(owner)) !joins;
  let computed = List.length todo and coalesced = List.length !joins in
  ( Array.map Option.get entries,
    { total = n; store_hits = n - computed - coalesced; computed; coalesced;
      dirty = List.map (fun i -> Loop.name loops.(i)) todo } )

let start_trace (ctx : Ctx.t) loop =
  Hcrf_obs.Tracer.start ctx.Ctx.tracer ~label:(Loop.name loop)

(* Resolve a batch, then read each loop's metrics from its entry
   serially in input order, committing its trace right after. *)
let run_pipeline ?(ctx = Ctx.default) config loops =
  let loops = Array.of_list loops in
  let traces = Array.map (start_trace ctx) loops in
  let entries, stats = resolve ~ctx ~traces config loops in
  let perfs =
    List.init (Array.length loops) (fun i ->
        let p = perf_of_entry config loops.(i) entries.(i) in
        Hcrf_obs.Tracer.commit ctx.Ctx.tracer traces.(i);
        p)
  in
  (perfs, stats)

let run_suite ?ctx config loops =
  Metrics.aggregate config
    (List.filter_map Fun.id (fst (run_pipeline ?ctx config loops)))

let run_loop ?(ctx = Ctx.default) config loop =
  let trace = start_trace ctx loop in
  let entries, _ = resolve ~ctx ~traces:[| trace |] config [| loop |] in
  let r = result_of_entry config loop entries.(0) in
  Hcrf_obs.Tracer.commit ctx.Ctx.tracer trace;
  r

let pp_pipeline_stats ppf s =
  Fmt.pf ppf "loops=%d store_hits=%d recomputed=%d coalesced=%d"
    s.total s.store_hits s.computed s.coalesced
