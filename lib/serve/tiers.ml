open Hcrf_ir
open Hcrf_cache
module Runner = Hcrf_eval.Runner
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event
module Tracer = Hcrf_obs.Tracer

(* Plain serving counters, all under one mutex.  They mirror the
   [Serve] trace events; the duplication is deliberate — counters are
   always on (stats must work untraced), traces only when a tracer is
   configured. *)
type counters = {
  mutable requests : int;
  mutable lru_hits : int;
  mutable tier2_hits : int;
  mutable computed : int;
  mutable coalesced : int;
  mutable rejected : int;
  mutable timeouts : int;
}

type t = {
  lru : (Fingerprint.t, Entry.t) Lru.t;
  cache : Cache.t;
  pool : Pool.t;
  (* keyed like the resolver's coalescing: cache key and input digest *)
  inflight : (Fingerprint.t * string, Entry.t Pool.future) Hashtbl.t;
  inflight_mutex : Mutex.t;
  tracer : Tracer.t;
  (* guards [c], every [Tracer.commit] and the counter snapshot in
     [stats]: [Counters.counts] reads the sink's table without the
     tracer's commit lock, so snapshots must exclude commits here *)
  obs_mutex : Mutex.t;
  c : counters;
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
    obs_mutex = Mutex.create ();
    c =
      {
        requests = 0;
        lru_hits = 0;
        tier2_hits = 0;
        computed = 0;
        coalesced = 0;
        rejected = 0;
        timeouts = 0;
      };
  }

let observed t f =
  Mutex.lock t.obs_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mutex) f

let bump t f = observed t (fun () -> f t.c)
let commit_trace t trace = observed t (fun () -> Tracer.commit t.tracer trace)

let emit trace op = if Tr.enabled trace then Tr.emit trace (Ev.Serve op)

(* The tier-3 computation: the batch runner's exact compute path,
   traced as its own work unit, stored through the runner's store
   helper.  Runs on a pool domain (or inline during drain). *)
let compute_task t ~id:((key, _) as id) ~scenario ~opts ~config ~loop fut () =
  let result =
    match
      let tr = Tracer.start t.tracer ~label:(Loop.name loop) in
      let entry = Runner.compute_entry ~trace:tr ~scenario ~opts config loop in
      Runner.store ~trace:tr t.cache key entry;
      commit_trace t tr;
      entry
    with
    | entry -> Ok entry
    | exception e -> Error e
  in
  Mutex.lock t.inflight_mutex;
  Hashtbl.remove t.inflight id;
  Mutex.unlock t.inflight_mutex;
  Pool.fulfil fut result

let refuse t ~trace ~kind msg =
  emit trace Ev.Reject;
  bump t (fun c -> c.rejected <- c.rejected + 1);
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
    emit trace Ev.Request;
    bump t (fun c -> c.requests <- c.requests + 1);
    refuse t ~trace ~kind:Wire.Malformed msg
  | loop -> (
    let trace = Tracer.start t.tracer ~label:(Loop.name loop) in
    emit trace Ev.Request;
    bump t (fun c -> c.requests <- c.requests + 1);
    match Hcrf_machine.Config.validate r.Wire.sr_config with
    | exception Invalid_argument msg ->
      refuse t ~trace ~kind:Wire.Malformed msg
    | config -> (
      let opts = Wire.engine_of_options r.Wire.sr_opts in
      let scenario = r.Wire.sr_scenario in
      let key = Runner.cache_key ~scenario ~opts config loop in
      let digest = Entry.ddg_digest loop.Loop.ddg in
      let hit entry =
        commit_trace t trace;
        Wire.Scheduled entry
      in
      match Lru.find t.lru key with
      | Some entry when Runner.compatible ~digest entry ->
        emit trace Ev.Lru_hit;
        bump t (fun c -> c.lru_hits <- c.lru_hits + 1);
        hit entry
      | Some _ | None -> (
        emit trace Ev.Lru_miss;
        match Runner.lookup ~trace t.cache key ~digest with
        | Some entry ->
          emit trace Ev.Disk_hit;
          bump t (fun c -> c.tier2_hits <- c.tier2_hits + 1);
          Lru.add t.lru key entry;
          hit entry
        | None -> (
          (* tier 3: register the future under (key, digest) before
             anything runs, so a racing duplicate joins it — and a
             renumbered twin, whose entry would be bound to other ids,
             does not *)
          let id = (key, digest) in
          Mutex.lock t.inflight_mutex;
          let fut, owner =
            match Hashtbl.find_opt t.inflight id with
            | Some fut -> (fut, false)
            | None ->
              let fut = Pool.promise () in
              Hashtbl.replace t.inflight id fut;
              (fut, true)
          in
          Mutex.unlock t.inflight_mutex;
          if owner then begin
            emit trace Ev.Computed;
            bump t (fun c -> c.computed <- c.computed + 1);
            let task =
              compute_task t ~id ~scenario ~opts ~config ~loop fut
            in
            (* a drained pool refuses thunks: compute inline so the
               last in-flight requests still complete *)
            if not (Pool.run t.pool task) then task ()
          end
          else begin
            emit trace Ev.Coalesced;
            bump t (fun c -> c.coalesced <- c.coalesced + 1)
          end;
          match Pool.await ?deadline fut with
          | `Ok entry ->
            Lru.add t.lru key entry;
            hit entry
          | `Timeout ->
            emit trace Ev.Timeout;
            bump t (fun c -> c.timeouts <- c.timeouts + 1);
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
      {
        Wire.requests = t.c.requests;
        lru_hits = t.c.lru_hits;
        lru_evictions = ls.Lru.evictions;
        lru_length = ls.Lru.length;
        lru_capacity = ls.Lru.capacity;
        tier2_hits = t.c.tier2_hits;
        computed = t.c.computed;
        coalesced = t.c.coalesced;
        rejected = t.c.rejected;
        timeouts = t.c.timeouts;
        cache = Cache.stats t.cache;
        counters =
          (match Tracer.counters t.tracer with
          | Some counters -> Hcrf_obs.Counters.counts counters
          | None -> []);
      })

let shutdown t = Pool.shutdown t.pool
