(** The stage memo of the incremental evaluation pipeline: one table,
    keyed by (stage, input digest), holding closure-free stage results,
    beside the one schedule cache its schedule entries live in.  See the
    interface for the contract. *)

type loop_snapshot = {
  ls_repr : Hcrf_ir.Ddg.repr;
  ls_trip_count : int;
  ls_entries : int;
  ls_streams : Hcrf_ir.Loop.stream list;
}

type value =
  | Loop_v of loop_snapshot
  | Fp_v of Hcrf_cache.Fingerprint.t
  | Perf_v of Metrics.loop_perf option

(* A live [Ddg.t] may carry a watcher closure (set by the engine), so a
   memoized loop is stored as its [repr]; [of_repr] preserves ids and
   adjacency order, so the round trip is behaviourally identical. *)
let snapshot_of_loop (l : Hcrf_ir.Loop.t) =
  {
    ls_repr = Hcrf_ir.Ddg.to_repr l.Hcrf_ir.Loop.ddg;
    ls_trip_count = l.Hcrf_ir.Loop.trip_count;
    ls_entries = l.Hcrf_ir.Loop.entries;
    ls_streams = l.Hcrf_ir.Loop.streams;
  }

let loop_of_snapshot s =
  Hcrf_ir.Loop.make ~trip_count:s.ls_trip_count ~entries:s.ls_entries
    ~streams:s.ls_streams
    (Hcrf_ir.Ddg.of_repr s.ls_repr)

type t = {
  dir : string option;
  table : (string, value) Hashtbl.t;
  lookups : (string, int) Hashtbl.t;  (* "<stage>.hits" / "<stage>.misses" *)
  mutex : Mutex.t;
  cache : Hcrf_cache.Cache.t;
}

(* version 2: the table holds no schedule entries; they live in [cache] *)
let version = 2
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
  { dir; table; lookups = Hashtbl.create 8; mutex = Mutex.create ();
    cache = Hcrf_cache.Cache.create ?dir () }

let cache t = t.cache

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stage_name = Hcrf_obs.Event.incr_stage_name

let count t ~stage ~hit =
  let key = stage_name stage ^ if hit then ".hits" else ".misses" in
  locked t (fun () ->
      Hashtbl.replace t.lookups key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.lookups key)))

let full_key ~stage key = stage_name stage ^ ":" ^ key

let find t ~stage key =
  let r = locked t (fun () -> Hashtbl.find_opt t.table (full_key ~stage key)) in
  count t ~stage ~hit:(Option.is_some r);
  r

let add t ~stage key value =
  locked t (fun () -> Hashtbl.replace t.table (full_key ~stage key) value)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let emit trace stage op ~since =
  if Hcrf_obs.Trace.enabled trace then
    Hcrf_obs.Trace.emit trace
      (Hcrf_obs.Event.Incr { stage; op; ns = now_ns () - since })

let memoize t ~trace ~stage key ~get ~put compute =
  let t0 = now_ns () in
  match Option.bind (find t ~stage key) get with
  | Some v ->
    emit trace stage Stage_hit ~since:t0;
    (v, true)
  | None ->
    emit trace stage Stage_miss ~since:t0;
    let t1 = now_ns () in
    let v = compute () in
    add t ~stage key (put v);
    emit trace stage Stage_recompute ~since:t1;
    (v, false)

let length t = locked t (fun () -> Hashtbl.length t.table)

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stage_stats t = locked t (fun () -> sorted t.lookups)

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
