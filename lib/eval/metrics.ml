(** The paper's comparison metrics (§2.3).

    For one loop with initiation interval II, stage count SC, N
    iterations per entry and E entries:

    - useful execution cycles: II * (N + (SC - 1) * E);
    - memory traffic: N * E * trf, trf being the memory accesses per
      iteration of the *final* schedule (spill code included);
    - execution time: cycles * cycle time;
    - stall cycles come from the memory simulation (0 under the ideal
      memory scenario). *)

open Hcrf_ir
open Hcrf_sched

(* Scheduler-effort counters, summed over a suite.  [attempts],
   [ejections] etc. come from the engine's own per-attempt counters;
   [retries] counts the escalation-ladder re-runs taken by
   [Runner.run_loop] when the default budget failed. *)
type sched_stats = {
  attempts : int;
  ejections : int;
  forcings : int;
  value_spills : int;
  invariant_spills : int;
  comm_inserted : int;
  ii_restarts : int;
  retries : int;
}

let zero_sched_stats =
  { attempts = 0; ejections = 0; forcings = 0; value_spills = 0;
    invariant_spills = 0; comm_inserted = 0; ii_restarts = 0; retries = 0 }

let add_sched_stats a b =
  {
    attempts = a.attempts + b.attempts;
    ejections = a.ejections + b.ejections;
    forcings = a.forcings + b.forcings;
    value_spills = a.value_spills + b.value_spills;
    invariant_spills = a.invariant_spills + b.invariant_spills;
    comm_inserted = a.comm_inserted + b.comm_inserted;
    ii_restarts = a.ii_restarts + b.ii_restarts;
    retries = a.retries + b.retries;
  }

let sched_stats_of_outcome ?(retries = 0) (o : Engine.outcome) =
  let s = o.Engine.stats in
  {
    attempts = s.Engine.attempts;
    ejections = s.Engine.ejections;
    forcings = s.Engine.forcings;
    value_spills = s.Engine.value_spills;
    invariant_spills = s.Engine.invariant_spills;
    comm_inserted = s.Engine.comm_inserted;
    ii_restarts = s.Engine.ii_restarts;
    retries;
  }

let pp_sched_stats ppf s =
  Fmt.pf ppf
    "attempts=%d ejections=%d forcings=%d spills=%d(+%d inv) comm=%d \
     ii-restarts=%d retries=%d"
    s.attempts s.ejections s.forcings s.value_spills s.invariant_spills
    s.comm_inserted s.ii_restarts s.retries

type loop_perf = {
  name : string;
  ii : int;
  mii : int;
  sc : int;
  trip_count : int;
  entries : int;
  ops : int;               (** operations per iteration (original) *)
  mem_refs_per_iter : int; (** final graph, spill included *)
  useful_cycles : float;
  stall_cycles : float;
  traffic : float;
  bound : Classify.bound;
  sched_seconds : float;
  sched : sched_stats;
}

(* [n] is the total number of iterations over all entries, matching the
   paper's "N being the total number of iterations". *)
let useful_cycles ~ii ~sc ~n ~e =
  float_of_int ii *. (float_of_int n +. (float_of_int (sc - 1) *. float_of_int e))

let of_outcome ?(stall_cycles = 0.) ?retries (loop : Loop.t)
    (o : Engine.outcome) =
  let e = loop.Loop.entries in
  let n = loop.Loop.trip_count * e in
  let trf = Ddg.num_memory_ops o.Engine.graph in
  {
    name = Loop.name loop;
    ii = o.Engine.ii;
    mii = o.Engine.mii;
    sc = o.Engine.sc;
    trip_count = loop.Loop.trip_count;
    entries = e;
    ops = Ddg.num_nodes loop.Loop.ddg;
    mem_refs_per_iter = trf;
    useful_cycles = useful_cycles ~ii:o.Engine.ii ~sc:o.Engine.sc ~n ~e;
    stall_cycles;
    traffic = float_of_int (n * trf);
    bound = Classify.of_outcome o;
    sched_seconds = o.Engine.seconds;
    sched = sched_stats_of_outcome ?retries o;
  }

type aggregate = {
  config : string;
  cycle_ns : float;
  loops : int;
  sum_ii : int;
  sum_mii : int;
  pct_at_mii : float;       (** % of loops scheduled at their MII *)
  exec_cycles : float;      (** useful + stall *)
  useful : float;
  stall : float;
  total_traffic : float;
  dynamic_ops : float;      (** original operations executed *)
  exec_seconds : float;     (** exec_cycles * cycle time *)
  sched_seconds : float;    (** scheduler wall-clock for the suite *)
  sched : sched_stats;      (** scheduler effort, summed over the suite *)
  bound_share : (Classify.bound * int * float) list;
      (** per bound: number of loops, execution cycles *)
}

let aggregate (config : Hcrf_machine.Config.t) (perfs : loop_perf list) =
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. perfs in
  let sumi f = List.fold_left (fun acc p -> acc + f p) 0 perfs in
  let useful = sum (fun p -> p.useful_cycles) in
  let stall = sum (fun p -> p.stall_cycles) in
  let exec_cycles = useful +. stall in
  let bound_share =
    List.map
      (fun b ->
        let here = List.filter (fun p -> p.bound = b) perfs in
        ( b,
          List.length here,
          List.fold_left
            (fun acc p -> acc +. p.useful_cycles +. p.stall_cycles)
            0. here ))
      Classify.all
  in
  {
    config = config.Hcrf_machine.Config.name;
    cycle_ns = config.Hcrf_machine.Config.cycle_ns;
    loops = List.length perfs;
    sum_ii = sumi (fun p -> p.ii);
    sum_mii = sumi (fun p -> p.mii);
    pct_at_mii =
      (if perfs = [] then 0.
       else
         100.
         *. float_of_int (List.length (List.filter (fun p -> p.ii = p.mii) perfs))
         /. float_of_int (List.length perfs));
    exec_cycles;
    useful;
    stall;
    total_traffic = sum (fun p -> p.traffic);
    dynamic_ops =
      sum (fun p ->
          float_of_int p.ops *. float_of_int p.trip_count
          *. float_of_int p.entries);
    exec_seconds = exec_cycles *. config.Hcrf_machine.Config.cycle_ns *. 1e-9;
    sched_seconds = sum (fun p -> p.sched_seconds);
    sched =
      List.fold_left
        (fun acc (p : loop_perf) -> add_sched_stats acc p.sched)
        zero_sched_stats perfs;
    bound_share;
  }

(** Dynamic IPC under the ideal-memory scenario (Figure 1). *)
let ipc a = if a.useful = 0. then 0. else a.dynamic_ops /. a.useful

let pp_aggregate ?cache ?trace ppf a =
  Fmt.pf ppf
    "%s: loops=%d sum_ii=%d (mii %d, %.1f%% at mii) cycles=%.3e (stall %.2e) \
     traffic=%.3e time=%.4fs ipc=%.2f@\n  sched: %a"
    a.config a.loops a.sum_ii a.sum_mii a.pct_at_mii a.exec_cycles a.stall
    a.total_traffic a.exec_seconds (ipc a) pp_sched_stats a.sched;
  (match cache with
  | None -> ()
  | Some c -> Fmt.pf ppf "@\n  cache: %a" Hcrf_cache.Cache.pp_stats c);
  match trace with
  | None -> ()
  | Some t -> Fmt.pf ppf "@\n  trace: %a" Hcrf_obs.Counters.pp t
