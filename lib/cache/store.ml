type t = { dir : string }

(* version 5: loop fingerprints include node ids and id counters, and
   entries no longer carry the input graph's id digest.  Files of older
   versions (the flat v2 layout included) fail the magic test and are
   recomputed. *)
let version = 5
let magic = Printf.sprintf "hcrf-cache %d\n" version

(* Shard count and the shard of a key (its leading hex nibble).  16 is
   enough to make same-shard collisions of concurrent writers rare and
   keeps the fan-out observable by eye in the cache directory. *)
let shards = 16

let shard_of_key key =
  match (Fingerprint.to_hex key).[0] with
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> 10 + Char.code c - Char.code 'a'
  | _ -> 0 (* to_hex is lower-case hex; unreachable *)

let dir t = t.dir

(* mkdir -p *)
let rec ensure_dir d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let shard_dir t i = Filename.concat t.dir (Printf.sprintf "%x" i)

let open_dir d =
  match
    ensure_dir d;
    if not (Sys.is_directory d) then failwith "not a directory";
    (* create every shard up front: [save] must never race a mkdir *)
    for i = 0 to shards - 1 do
      ensure_dir (Filename.concat d (Printf.sprintf "%x" i))
    done
  with
  | () -> Some { dir = d }
  | exception e ->
    Logs.warn (fun m ->
        m "schedule cache: cannot use directory %s (%s); continuing \
           in-memory only"
          d (Printexc.to_string e));
    None

let path t ~key =
  Filename.concat
    (shard_dir t (shard_of_key key))
    (Fingerprint.to_hex key ^ ".hcrf")

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_sealed ~magic p =
  match read_file p with
  | exception e -> Error (Printexc.to_string e)
  | content ->
    let mlen = String.length magic in
    if String.length content < mlen + 16 then Error "truncated"
    else if not (String.equal (String.sub content 0 mlen) magic) then
      Error "bad magic or stale version"
    else
      let sum = String.sub content mlen 16 in
      let payload =
        String.sub content (mlen + 16) (String.length content - mlen - 16)
      in
      if String.equal sum (Digest.string payload) then Ok payload
      else Error "checksum mismatch"

let tmp_counter = Atomic.make 0

let write_sealed ~magic p payload =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" p (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        output_string oc (Digest.string payload);
        output_string oc payload);
    Sys.rename tmp p
  with
  | () -> Ok ()
  | exception e ->
    (if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ());
    Error (Printexc.to_string e)

let load t ~key =
  let p = path t ~key in
  let stale reason =
    Logs.warn (fun m ->
        m "schedule cache: ignoring %s (%s); recomputing" p reason);
    `Error
  in
  if not (Sys.file_exists p) then `Miss
  else
    match read_sealed ~magic p with
    | Error reason -> stale reason
    | Ok payload -> (
      (* the checksum matched, so the payload is exactly what a
         same-layout writer produced: unmarshalling is safe *)
      match (Marshal.from_string payload 0 : string * Entry.t) with
      | exception e -> stale (Printexc.to_string e)
      | stored_key, entry ->
        if String.equal stored_key (Fingerprint.to_hex key) then `Hit entry
        else stale "key mismatch")

let save t ~key entry =
  let p = path t ~key in
  match
    write_sealed ~magic p
      (Marshal.to_string (Fingerprint.to_hex key, entry) [])
  with
  | Ok () -> true
  | Error reason ->
    Logs.warn (fun m ->
        m "schedule cache: cannot write %s (%s); entry kept in memory only"
          p reason);
    false
