(** The stage memo of the incremental evaluation pipeline: one table
    from kernel digest to live compiled loop, beside the one schedule
    cache its schedule entries live in.  See the interface for the
    contract. *)

module Counters = Hcrf_obs.Counters
module Ev = Hcrf_obs.Event

type t = {
  table : (string, Hcrf_ir.Loop.t) Hashtbl.t;
  counts : Counters.t;  (* every [Incr] note, traced or not *)
  mutex : Mutex.t;
  cache : Hcrf_cache.Cache.t;
}

let create () =
  { table = Hashtbl.create 128; counts = Counters.create ();
    mutex = Mutex.create (); cache = Hcrf_cache.Cache.create () }

let cache t = t.cache

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let emit t trace op ~since =
  let ev = Ev.Incr { op; ns = now_ns () - since } in
  Mutex.protect t.mutex (fun () -> Counters.note t.counts trace ev)

let find_or_compile t ~trace digest compile =
  let t0 = now_ns () in
  match Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.table digest) with
  | Some compiled ->
    emit t trace Stage_hit ~since:t0;
    (compiled, true)
  | None ->
    emit t trace Stage_miss ~since:t0;
    let t1 = now_ns () in
    let compiled = compile () in
    Mutex.protect t.mutex (fun () -> Hashtbl.replace t.table digest compiled);
    emit t trace Stage_recompute ~since:t1;
    (compiled, false)

let note_hits t traces =
  let ev = Ev.Incr { op = Stage_hit; ns = 0 } in
  Mutex.protect t.mutex (fun () ->
      List.iter (fun trace -> Counters.note t.counts trace ev) traces)

let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

(* The lookup counts, read back from the registry's [Incr] notes. *)
let stage_stats t =
  Mutex.protect t.mutex @@ fun () ->
  List.filter_map
    (fun (op, key) ->
      match Counters.count t.counts (Ev.Incr { op; ns = 0 }) with
      | 0 -> None
      | n -> Some (key, n))
    [ (Ev.Stage_hit, "frontend.hits"); (Ev.Stage_miss, "frontend.misses") ]
