type stats = {
  hits : int;
  misses : int;
  stores : int;
  disk_hits : int;
  disk_errors : int;
}

let zero_stats =
  { hits = 0; misses = 0; stores = 0; disk_hits = 0; disk_errors = 0 }

(* Keys in sorted order, [k=v] like the trace counters, so the cache
   line is byte-comparable across runs and merge tools can treat every
   counter line the same way. *)
let pp_stats ppf s =
  Fmt.pf ppf "disk-errors=%d disk-hits=%d hits=%d misses=%d stores=%d"
    s.disk_errors s.disk_hits s.hits s.misses s.stores

(* One shard: its slice of the in-memory table, its own counters and
   its own mutex.  Keys map to shards exactly as in the on-disk layout
   ({!Store.shard_of_key}), so two lookups can only contend when they
   would also touch the same store subdirectory — the single global
   mutex this replaced serialized *every* lookup of a Par pool or a
   serving daemon's connection handlers. *)
type shard = {
  table : (Fingerprint.t, Entry.t) Hashtbl.t;
  mutex : Mutex.t;
  mutable counters : stats;
}

type t = { shards_ : shard array; store : Store.t option }

let create ?dir () =
  {
    shards_ =
      Array.init Store.shards (fun _ ->
          { table = Hashtbl.create 32;
            mutex = Mutex.create ();
            counters = zero_stats });
    store = Option.bind dir Store.open_dir;
  }

let dir t = Option.map Store.dir t.store

let shard t key = t.shards_.(Store.shard_of_key key)

module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event

let emit trace op =
  if Tr.enabled trace then Tr.emit trace (Ev.Cache op)

let find ?(trace = Tr.off) ?(validate = fun (_ : Entry.t) -> true) t key =
  let sh = shard t key in
  let result =
    Mutex.protect sh.mutex (fun () ->
      let miss ?(disk_error = false) () =
        sh.counters <-
          { sh.counters with
            misses = sh.counters.misses + 1;
            disk_errors =
              (sh.counters.disk_errors + if disk_error then 1 else 0) };
        None
      in
      match Hashtbl.find_opt sh.table key with
      | Some e when validate e ->
        sh.counters <- { sh.counters with hits = sh.counters.hits + 1 };
        Some e
      | Some _ ->
        (* present but rejected by [validate]: the caller must
           recompute, so this is a miss *)
        miss ()
      | None -> (
        let disk =
          match t.store with
          | None -> `Miss
          | Some s -> Store.load s ~key
        in
        match disk with
        | `Hit e when validate e ->
          Hashtbl.replace sh.table key e;
          sh.counters <-
            { sh.counters with
              hits = sh.counters.hits + 1;
              disk_hits = sh.counters.disk_hits + 1 };
          Some e
        | `Hit _ -> miss ()
        | (`Miss | `Error) as r ->
          (* a present-but-unreadable file was already reported by
             [Store.load]; it counts as a miss and is recomputed *)
          miss ~disk_error:(r = `Error) ()))
  in
  emit trace (match result with Some _ -> Ev.Hit | None -> Ev.Miss);
  result

let add ?(trace = Tr.off) t key entry =
  emit trace Ev.Store;
  let sh = shard t key in
  Mutex.protect sh.mutex (fun () ->
      Hashtbl.replace sh.table key entry;
      let wrote =
        match t.store with
        | None -> true
        | Some s -> Store.save s ~key entry
      in
      sh.counters <-
        { sh.counters with
          stores = sh.counters.stores + 1;
          disk_errors =
            (sh.counters.disk_errors + if wrote then 0 else 1) };
      ())

(* Per-shard counters summed into one snapshot; integer sums commute,
   so the totals are deterministic for any interleaving of workers. *)
let stats t =
  Array.fold_left
    (fun acc sh ->
      let c = Mutex.protect sh.mutex (fun () -> sh.counters) in
      {
        hits = acc.hits + c.hits;
        misses = acc.misses + c.misses;
        stores = acc.stores + c.stores;
        disk_hits = acc.disk_hits + c.disk_hits;
        disk_errors = acc.disk_errors + c.disk_errors;
      })
    zero_stats t.shards_
