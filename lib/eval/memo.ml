(** The stage memo of the incremental evaluation pipeline: one table,
    keyed by (stage, input digest), holding closure-free stage results,
    beside the one schedule cache its schedule entries live in.  See the
    interface for the contract. *)

type value =
  | Loop_v of Hcrf_ir.Loop.repr
  | Fp_v of Hcrf_cache.Fingerprint.t
  | Perf_v of Metrics.loop_perf option

module Counters = Hcrf_obs.Counters
module Ev = Hcrf_obs.Event

type t = {
  dir : string option;
  table : (string, value) Hashtbl.t;
  counts : Counters.t;  (* every [Incr] note, traced or not *)
  mutex : Mutex.t;
  cache : Hcrf_cache.Cache.t;
}

(* version 2: the table holds no schedule entries; they live in [cache].
   version 3: extract-stage [Fp_v] values are rank-based WL loop
   fingerprints; version-2 files hold MD5-chain ones. *)
let version = 3
let magic = Printf.sprintf "hcrf-memo %d\n" version
let file_of_dir dir = Filename.concat dir (Printf.sprintf "memo.v%d" version)

(* Anything off is discarded with a warning, never unmarshalled; an
   older version's file is never even read. *)
let load_bindings dir =
  let stale p reason =
    Logs.warn (fun m -> m "stage memo: ignoring %s (%s)" p reason);
    []
  in
  for v = 1 to version - 1 do
    let p = Filename.concat dir (Printf.sprintf "memo.v%d" v) in
    if Sys.file_exists p then ignore (stale p "stale version")
  done;
  let p = file_of_dir dir in
  if not (Sys.file_exists p) then []
  else
    match Hcrf_cache.Store.read_sealed ~magic p with
    | Error reason -> stale p reason
    | Ok payload -> (
      match (Marshal.from_string payload 0 : (string * value) array) with
      | exception e -> stale p (Printexc.to_string e)
      | bindings -> Array.to_list bindings)

let create ?dir () =
  let table = Hashtbl.create 128 in
  Option.iter
    (fun d -> List.iter (fun (k, v) -> Hashtbl.replace table k v)
        (load_bindings d))
    dir;
  { dir; table; counts = Counters.create (); mutex = Mutex.create ();
    cache = Hcrf_cache.Cache.create ?dir () }

let cache t = t.cache

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let full_key ~stage key = Ev.incr_stage_name stage ^ ":" ^ key

let add t ~stage key value =
  locked t (fun () -> Hashtbl.replace t.table (full_key ~stage key) value)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let emit t trace stage op ~since =
  let ev = Ev.Incr { stage; op; ns = now_ns () - since } in
  locked t (fun () -> Counters.note t.counts trace ev)

let memoize t ~trace ~stage key ~get ~put compute =
  let t0 = now_ns () in
  let found =
    locked t (fun () -> Hashtbl.find_opt t.table (full_key ~stage key))
  in
  match Option.bind found get with
  | Some v ->
    emit t trace stage Stage_hit ~since:t0;
    (v, true)
  | None ->
    emit t trace stage Stage_miss ~since:t0;
    let t1 = now_ns () in
    let v = compute () in
    add t ~stage key (put v);
    emit t trace stage Stage_recompute ~since:t1;
    (v, false)

let length t = locked t (fun () -> Hashtbl.length t.table)

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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

let save t =
  match t.dir with
  | None -> true
  | Some dir -> (
    let bindings = locked t (fun () -> Array.of_list (sorted t.table)) in
    let p = file_of_dir dir in
    match
      Hcrf_cache.Store.write_sealed ~magic p (Marshal.to_string bindings [])
    with
    | Ok () -> true
    | Error reason ->
      Logs.warn (fun m ->
          m "stage memo: cannot write %s (%s); memo kept in memory only" p
            reason);
      false)
