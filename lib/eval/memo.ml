(** The stage memo of the incremental evaluation pipeline: one table,
    keyed by (stage, input digest), holding closure-free stage results,
    beside the one schedule cache its schedule entries live in.  See the
    interface for the contract. *)

type value =
  | Loop_v of Hcrf_ir.Loop.repr
  | Perf_v of Metrics.loop_perf option

module Counters = Hcrf_obs.Counters
module Ev = Hcrf_obs.Event

type t = {
  table : (string, value) Hashtbl.t;
  counts : Counters.t;  (* every [Incr] note, traced or not *)
  mutex : Mutex.t;
  cache : Hcrf_cache.Cache.t;
}

let create () =
  { table = Hashtbl.create 128; counts = Counters.create ();
    mutex = Mutex.create (); cache = Hcrf_cache.Cache.create () }

let cache t = t.cache

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let full_key ~stage key = Ev.incr_stage_name stage ^ ":" ^ key

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let emit t trace stage op ~since =
  let ev = Ev.Incr { stage; op; ns = now_ns () - since } in
  locked t (fun () -> Counters.note t.counts trace ev)

let memoize t ~trace ~stage key ~get ~put compute =
  let t0 = now_ns () in
  let key = full_key ~stage key in
  let found = locked t (fun () -> Hashtbl.find_opt t.table key) in
  match Option.bind found get with
  | Some v ->
    emit t trace stage Stage_hit ~since:t0;
    (v, true)
  | None ->
    emit t trace stage Stage_miss ~since:t0;
    let t1 = now_ns () in
    let v = compute () in
    let stored = put v in
    locked t (fun () -> Hashtbl.replace t.table key stored);
    emit t trace stage Stage_recompute ~since:t1;
    (v, false)

let length t = locked t (fun () -> Hashtbl.length t.table)

(* The lookup counts, read back from the registry's [Incr] notes. *)
let stage_stats t =
  locked t @@ fun () ->
  List.concat_map
    (fun (stage, name) ->
      List.filter_map
        (fun (op, suffix) ->
          match Counters.count t.counts (Ev.Incr { stage; op; ns = 0 }) with
          | 0 -> None
          | n -> Some (name ^ suffix, n))
        [ (Ev.Stage_hit, ".hits"); (Ev.Stage_miss, ".misses") ])
    Ev.incr_stage_names
  |> List.sort compare
