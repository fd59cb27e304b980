open Hcrf_ir

(* ------------------------------------------------------------------ *)
(* Addresses *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port when port > 0 && port < 0x10000 ->
      Tcp (String.sub s 0 i, port)
    | Some _ | None -> Unix_sock s)
  | Some _ | None -> Unix_sock s

let pp_addr ppf = function
  | Unix_sock p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "%s:%d" h p

let sockaddr = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback)
    in
    (Unix.PF_INET, Unix.ADDR_INET (ip, port))

(* ------------------------------------------------------------------ *)
(* Messages *)

type options = {
  w_budget_ratio : int;
  w_backtracking : bool;
  w_ordering : [ `Hrms | `Topological ];
}

let options_of_engine (o : Hcrf_sched.Engine.options) =
  {
    w_budget_ratio = o.Hcrf_sched.Engine.budget_ratio;
    w_backtracking = o.Hcrf_sched.Engine.backtracking;
    w_ordering = o.Hcrf_sched.Engine.ordering;
  }

let engine_of_options (o : options) =
  {
    Hcrf_sched.Engine.default_options with
    Hcrf_sched.Engine.budget_ratio = o.w_budget_ratio;
    backtracking = o.w_backtracking;
    ordering = o.w_ordering;
  }

type schedule_request = {
  sr_loop : Loop.repr;
  sr_config : Hcrf_machine.Config.t;
  sr_opts : options;
  sr_scenario : Hcrf_eval.Runner.memory_scenario;
  sr_timeout_ms : int;
}

let request_of_loop ?(timeout_ms = 0) ~config ~opts ~scenario l =
  {
    sr_loop = Loop.to_repr l;
    sr_config = config;
    sr_opts = options_of_engine opts;
    sr_scenario = scenario;
    sr_timeout_ms = timeout_ms;
  }

(* The wire is untrusted: a repeated id, a dangling edge or an id past
   the id counter would surface deep inside the engine, and the graph
   and the scheduler size per-node arrays by the largest id, so the ids
   are checked on the repr before anything is built, and the graph
   after.  [Loop.of_repr] refuses a repeated id. *)
let loop_of_request r =
  if not (Ddg.compact r.sr_loop.Loop.repr_ddg) then
    invalid_arg "loop_of_request: node ids are not compact";
  let loop = Loop.of_repr r.sr_loop in
  if not (Ddg.validate loop.Loop.ddg) then
    invalid_arg "loop_of_request: malformed dependence graph";
  loop

type request = Schedule of schedule_request | Stats | Ping

type serve_stats = {
  requests : int;
  lru_hits : int;
  lru_evictions : int;
  lru_length : int;
  lru_capacity : int;
  tier2_hits : int;
  computed : int;
  coalesced : int;
  rejected : int;
  timeouts : int;
  cache : Hcrf_cache.Cache.stats;
  counters : (string * int) list;
}

(* Sorted [k=v] keys like the cache and counter printers, so scripts
   can grep one stable shape. *)
let pp_serve_stats ppf s =
  Fmt.pf ppf
    "coalesced=%d computed=%d lru_capacity=%d lru_evictions=%d \
     lru_hits=%d lru_length=%d rejected=%d requests=%d tier2_hits=%d \
     timeouts=%d"
    s.coalesced s.computed s.lru_capacity s.lru_evictions s.lru_hits
    s.lru_length s.rejected s.requests s.tier2_hits s.timeouts

type error_kind = Malformed | Too_big | Timed_out | Draining | Internal

let error_kind_name = function
  | Malformed -> "malformed"
  | Too_big -> "too-big"
  | Timed_out -> "timed-out"
  | Draining -> "draining"
  | Internal -> "internal"

type response =
  | Scheduled of Hcrf_cache.Entry.t
  | Stats_reply of serve_stats
  | Pong
  | Refused of error_kind * string

(* ------------------------------------------------------------------ *)
(* Framing *)

type frame_error =
  | Bad_magic
  | Too_large of int
  | Truncated
  | Bad_checksum
  | Bad_payload of string

let pp_frame_error ppf = function
  | Bad_magic -> Fmt.string ppf "bad magic"
  | Too_large n -> Fmt.pf ppf "frame too large (%d bytes)" n
  | Truncated -> Fmt.string ppf "truncated frame"
  | Bad_checksum -> Fmt.string ppf "checksum mismatch"
  | Bad_payload msg -> Fmt.pf ppf "bad payload (%s)" msg

let magic = "hcrfsrv6"
let header_size = String.length magic + 4 + 16
let default_max_frame = 16 * 1024 * 1024

let frame payload =
  let n = String.length payload in
  let b = Buffer.create (header_size + n) in
  Buffer.add_string b magic;
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int n);
  Buffer.add_bytes b len;
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Header fields of a (partial) frame: claimed payload length and
   checksum.  Shared by [unframe] and the incremental socket reader. *)
let parse_header ~max_frame h =
  if String.length h < header_size then Error Truncated
  else if not (String.starts_with ~prefix:magic h) then Error Bad_magic
  else
    let len = Int32.to_int (String.get_int32_be h (String.length magic)) in
    if len < 0 || len > max_frame then Error (Too_large len)
    else Ok (len, String.sub h (String.length magic + 4) 16)

let unframe ?(max_frame = default_max_frame) s =
  match parse_header ~max_frame s with
  | Error _ as e -> e
  | Ok (len, sum) ->
    if String.length s <> header_size + len then Error Truncated
    else
      let payload = String.sub s header_size len in
      if not (String.equal (Digest.string payload) sum) then
        Error Bad_checksum
      else Ok payload

(* One-byte message-kind tag ahead of the marshalled bytes: together
   with the checksum it guarantees the unmarshaller only ever reads
   bytes a same-build encoder of the *same message type* produced. *)
let tag_request = 'Q'
let tag_response = 'R'

let payload tag v = String.make 1 tag ^ Marshal.to_string v []

let decode tag payload =
  if String.length payload < 1 || not (Char.equal payload.[0] tag) then
    Error (Bad_payload "wrong message kind")
  else
    match Marshal.from_string payload 1 with
    | v -> Ok v
    | exception e -> Error (Bad_payload (Printexc.to_string e))

let request_payload (r : request) = payload tag_request r
let encode_request r = frame (request_payload r)
let encode_response (r : response) = frame (payload tag_response r)

let decode_request payload : (request, frame_error) result =
  decode tag_request payload

let decode_response payload : (response, frame_error) result =
  decode tag_response payload

(* ------------------------------------------------------------------ *)
(* Socket helpers *)

(* Bytes actually read (may stop short at EOF); retries EINTR. *)
let rec really_read fd buf off len =
  if len = 0 then off
  else
    match Unix.read fd buf off len with
    | 0 -> off
    | n -> really_read fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      really_read fd buf off len

type read_outcome =
  | Frame of { payload : string; digest : Digest.t }
  | Eof
  | Bad of frame_error

(* The header and payload buffers are never written after the read, so
   they are handed out as strings without a copy. *)
let read_frame ?(max_frame = default_max_frame) fd =
  let hdr = Bytes.create header_size in
  match really_read fd hdr 0 header_size with
  | 0 -> Eof
  | n when n < header_size -> Bad Truncated
  | _ -> (
    match parse_header ~max_frame (Bytes.unsafe_to_string hdr) with
    | Error e -> Bad e
    | Ok (len, sum) ->
      let buf = Bytes.create len in
      if really_read fd buf 0 len < len then Bad Truncated
      else
        let payload = Bytes.unsafe_to_string buf in
        if not (String.equal (Digest.string payload) sum) then
          Bad Bad_checksum
        else Frame { payload; digest = sum })

let write fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
