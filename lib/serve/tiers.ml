open Hcrf_ir
open Hcrf_cache
module Runner = Hcrf_eval.Runner
module Ev = Hcrf_obs.Event
module Tracer = Hcrf_obs.Tracer
module Counters = Hcrf_obs.Counters

(* A tier-1 answer: the framed [Scheduled] reply, the entry it
   carries (for {!schedule}) and the label of the request's trace. *)
type reply = { label : string; entry : Entry.t; frame : string }

type t = {
  (* keyed by the MD5 of the request payload *)
  lru : (Digest.t, reply) Lru.t;
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

let commit_trace t trace =
  Mutex.protect t.obs_mutex (fun () -> Tracer.commit t.tracer trace)

(* One tier decision: counted in the registry, traced when enabled. *)
let note t trace op =
  Mutex.protect t.obs_mutex (fun () ->
      Counters.note t.counts trace (Ev.Serve op))

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

(* Tier 1: a request whose bytes were answered before gets the same
   reply, under the label of its first answer's trace. *)
let lru_hit t ~digest =
  match Lru.find t.lru digest with
  | None -> None
  | Some h as hit ->
    let trace = Tracer.start t.tracer ~label:h.label in
    note t trace Ev.Request;
    note t trace Ev.Lru_hit;
    commit_trace t trace;
    hit

(* Tiers 2 and 3 for a request tier 1 missed; a [Scheduled] answer is
   framed once and stored in tier 1 under [digest]. *)
let resolve t ~digest (r : Wire.schedule_request) :
    (reply, Wire.response) result =
  let deadline =
    if r.Wire.sr_timeout_ms > 0 then
      Some (Unix.gettimeofday () +. (float_of_int r.Wire.sr_timeout_ms /. 1e3))
    else None
  in
  match Wire.loop_of_request r with
  | exception Invalid_argument msg ->
    let trace = Tracer.start t.tracer ~label:"serve" in
    note t trace Ev.Request;
    Error (refuse t ~trace ~kind:Wire.Malformed msg)
  | loop -> (
    let label = Loop.name loop in
    let trace = Tracer.start t.tracer ~label in
    note t trace Ev.Request;
    match Hcrf_machine.Config.validate r.Wire.sr_config with
    | exception Invalid_argument msg ->
      Error (refuse t ~trace ~kind:Wire.Malformed msg)
    | config -> (
      let opts = Wire.engine_of_options r.Wire.sr_opts in
      let scenario = r.Wire.sr_scenario in
      let key = Runner.cache_key ~scenario ~opts config loop in
      let answer entry =
        let h =
          { label; entry; frame = Wire.encode_response (Wire.Scheduled entry) }
        in
        Lru.add t.lru digest h;
        commit_trace t trace;
        Ok h
      in
      note t trace Ev.Lru_miss;
      match Cache.find ~trace t.cache key with
      | Some entry ->
        note t trace Ev.Disk_hit;
        answer entry
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
          let task = compute_task t ~key ~scenario ~opts ~config ~loop fut in
          (* a drained pool refuses thunks: compute inline so the last
             in-flight requests still complete *)
          if not (Pool.run t.pool task) then task ()
        end
        else note t trace Ev.Coalesced;
        match Pool.await ?deadline fut with
        | `Ok entry -> answer entry
        | `Timeout ->
          note t trace Ev.Timeout;
          commit_trace t trace;
          Error
            (Wire.Refused
               ( Wire.Timed_out,
                 Fmt.str "deadline of %d ms expired" r.Wire.sr_timeout_ms ))
        | `Exn e ->
          Error (refuse t ~trace ~kind:Wire.Internal (Printexc.to_string e)))))

let schedule t r =
  let digest = Digest.string (Wire.request_payload (Wire.Schedule r)) in
  match lru_hit t ~digest with
  | Some h -> Wire.Scheduled h.entry
  | None -> (
    match resolve t ~digest r with
    | Ok h -> Wire.Scheduled h.entry
    | Error refused -> refused)

let reject t ~kind msg =
  let trace = Tracer.start t.tracer ~label:"serve" in
  refuse t ~trace ~kind msg

let stats t : Wire.serve_stats =
  let ls = Lru.stats t.lru in
  Mutex.protect t.obs_mutex (fun () ->
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

let answer t ~digest payload =
  match lru_hit t ~digest with
  | Some h -> h.frame
  | None -> (
    match Wire.decode_request payload with
    | Error e ->
      Wire.encode_response
        (reject t ~kind:Wire.Malformed (Fmt.str "%a" Wire.pp_frame_error e))
    | Ok Wire.Ping -> Wire.encode_response Wire.Pong
    | Ok Wire.Stats -> Wire.encode_response (Wire.Stats_reply (stats t))
    | Ok (Wire.Schedule r) -> (
      match resolve t ~digest r with
      | Ok h -> h.frame
      | Error refused -> Wire.encode_response refused))

let shutdown t = Pool.shutdown t.pool
