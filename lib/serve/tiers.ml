open Hcrf_ir
open Hcrf_cache
module Runner = Hcrf_eval.Runner
module Ev = Hcrf_obs.Event
module Tracer = Hcrf_obs.Tracer
module Counters = Hcrf_obs.Counters

type t = {
  lru : (Fingerprint.t, Entry.t) Lru.t;
  cache : Cache.t;
  pool : Pool.t;
  (* keyed like the resolver's coalescing: by cache key *)
  inflight : (Fingerprint.t, Entry.t Pool.future) Hashtbl.t;
  inflight_mutex : Mutex.t;
  tracer : Tracer.t;
  (* the always-on registry of [Serve] notes, counted whether or not a
     tracer is set; {!stats} reads it *)
  counts : Counters.t;
  (* guards [counts], every [Tracer.commit] and the counter snapshots
     in [stats]: [Counters.counts] reads a table without the tracer's
     commit lock, so snapshots must exclude commits here *)
  obs_mutex : Mutex.t;
}

let create ?dir ?lru_capacity ?jobs ?(tracer = Tracer.null) () =
  let lru_capacity =
    match lru_capacity with
    | Some n -> n
    | None -> Hcrf_eval.Env.default_serve_lru
  in
  let jobs =
    match jobs with Some n -> n | None -> Hcrf_eval.Par.default_jobs ()
  in
  {
    lru = Lru.create ~capacity:lru_capacity;
    cache = Cache.create ?dir ();
    pool = Pool.create ~jobs;
    inflight = Hashtbl.create 64;
    inflight_mutex = Mutex.create ();
    tracer;
    counts = Counters.create ();
    obs_mutex = Mutex.create ();
  }

let observed t f =
  Mutex.lock t.obs_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mutex) f

let commit_trace t trace = observed t (fun () -> Tracer.commit t.tracer trace)

(* One tier decision: counted in the registry, traced when enabled. *)
let note t trace op =
  observed t (fun () -> Counters.note t.counts trace (Ev.Serve op))

(* The tier-3 computation: the batch runner's exact compute path,
   traced as its own work unit, stored in the shared cache.  Runs on a
   pool domain (or inline during drain). *)
let compute_task t ~key ~scenario ~opts ~config ~loop fut () =
  let result =
    match
      let tr = Tracer.start t.tracer ~label:(Loop.name loop) in
      let entry = Runner.compute_entry ~trace:tr ~scenario ~opts config loop in
      Cache.add ~trace:tr t.cache key entry;
      commit_trace t tr;
      entry
    with
    | entry -> Ok entry
    | exception e -> Error e
  in
  Mutex.lock t.inflight_mutex;
  Hashtbl.remove t.inflight key;
  Mutex.unlock t.inflight_mutex;
  Pool.fulfil fut result

let refuse t ~trace ~kind msg =
  note t trace Ev.Reject;
  commit_trace t trace;
  Wire.Refused (kind, msg)

let schedule t (r : Wire.schedule_request) : Wire.response =
  let deadline =
    if r.Wire.sr_timeout_ms > 0 then
      Some (Unix.gettimeofday () +. (float_of_int r.Wire.sr_timeout_ms /. 1e3))
    else None
  in
  match Wire.loop_of_request r with
  | exception Invalid_argument msg ->
    let trace = Tracer.start t.tracer ~label:"serve" in
    note t trace Ev.Request;
    refuse t ~trace ~kind:Wire.Malformed msg
  | loop -> (
    let trace = Tracer.start t.tracer ~label:(Loop.name loop) in
    note t trace Ev.Request;
    match Hcrf_machine.Config.validate r.Wire.sr_config with
    | exception Invalid_argument msg ->
      refuse t ~trace ~kind:Wire.Malformed msg
    | config -> (
      let opts = Wire.engine_of_options r.Wire.sr_opts in
      let scenario = r.Wire.sr_scenario in
      let key = Runner.cache_key ~scenario ~opts config loop in
      let hit entry =
        commit_trace t trace;
        Wire.Scheduled entry
      in
      match Lru.find t.lru key with
      | Some entry ->
        note t trace Ev.Lru_hit;
        hit entry
      | None -> (
        note t trace Ev.Lru_miss;
        match Cache.find ~trace t.cache key with
        | Some entry ->
          note t trace Ev.Disk_hit;
          Lru.add t.lru key entry;
          hit entry
        | None -> (
          (* tier 3: register the future under the key before anything
             runs, so a racing duplicate joins it *)
          Mutex.lock t.inflight_mutex;
          let fut, owner =
            match Hashtbl.find_opt t.inflight key with
            | Some fut -> (fut, false)
            | None ->
              let fut = Pool.promise () in
              Hashtbl.replace t.inflight key fut;
              (fut, true)
          in
          Mutex.unlock t.inflight_mutex;
          if owner then begin
            note t trace Ev.Computed;
            let task =
              compute_task t ~key ~scenario ~opts ~config ~loop fut
            in
            (* a drained pool refuses thunks: compute inline so the
               last in-flight requests still complete *)
            if not (Pool.run t.pool task) then task ()
          end
          else note t trace Ev.Coalesced;
          match Pool.await ?deadline fut with
          | `Ok entry ->
            Lru.add t.lru key entry;
            hit entry
          | `Timeout ->
            note t trace Ev.Timeout;
            commit_trace t trace;
            Wire.Refused
              ( Wire.Timed_out,
                Fmt.str "deadline of %d ms expired" r.Wire.sr_timeout_ms )
          | `Exn e ->
            refuse t ~trace ~kind:Wire.Internal (Printexc.to_string e)))))

let reject t ~kind msg =
  let trace = Tracer.start t.tracer ~label:"serve" in
  refuse t ~trace ~kind msg

let stats t : Wire.serve_stats =
  let ls = Lru.stats t.lru in
  observed t (fun () ->
      let n op = Counters.count t.counts (Ev.Serve op) in
      {
        Wire.requests = n Ev.Request;
        lru_hits = n Ev.Lru_hit;
        lru_evictions = ls.Lru.evictions;
        lru_length = ls.Lru.length;
        lru_capacity = ls.Lru.capacity;
        tier2_hits = n Ev.Disk_hit;
        computed = n Ev.Computed;
        coalesced = n Ev.Coalesced;
        rejected = n Ev.Reject;
        timeouts = n Ev.Timeout;
        cache = Cache.stats t.cache;
        counters =
          (match Tracer.counters t.tracer with
          | Some counters -> Counters.counts counters
          | None -> []);
      })

let shutdown t = Pool.shutdown t.pool
