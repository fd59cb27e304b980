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

(* ------------------------------------------------------------------ *)
(* Messages *)

type options = {
  w_budget_ratio : int;
  w_max_ii : int option;
  w_backtracking : bool;
  w_ordering : [ `Hrms | `Topological ];
}

let options_of_engine (o : Hcrf_sched.Engine.options) =
  {
    w_budget_ratio = o.Hcrf_sched.Engine.budget_ratio;
    w_max_ii = o.Hcrf_sched.Engine.max_ii;
    w_backtracking = o.Hcrf_sched.Engine.backtracking;
    w_ordering = o.Hcrf_sched.Engine.ordering;
  }

let engine_of_options (o : options) =
  {
    Hcrf_sched.Engine.default_options with
    Hcrf_sched.Engine.budget_ratio = o.w_budget_ratio;
    max_ii = o.w_max_ii;
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

(* The wire is untrusted: a dangling edge or an id past the id counter
   would surface deep inside the engine, so check the graph here. *)
let loop_of_request r =
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

let magic = "hcrfsrv3"
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
  else if not (String.equal (String.sub h 0 (String.length magic)) magic)
  then Error Bad_magic
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

let encode tag v = frame (String.make 1 tag ^ Marshal.to_string v [])

let decode tag payload =
  if String.length payload < 1 || not (Char.equal payload.[0] tag) then
    Error (Bad_payload "wrong message kind")
  else
    match Marshal.from_string payload 1 with
    | v -> Ok v
    | exception e -> Error (Bad_payload (Printexc.to_string e))

let encode_request (r : request) = encode tag_request r
let encode_response (r : response) = encode tag_response r

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

type read_outcome = Frame of string | Eof | Bad of frame_error

let read_frame ?(max_frame = default_max_frame) fd =
  let hdr = Bytes.create header_size in
  match really_read fd hdr 0 header_size with
  | 0 -> Eof
  | n when n < header_size -> Bad Truncated
  | _ -> (
    match parse_header ~max_frame (Bytes.to_string hdr) with
    | Error e -> Bad e
    | Ok (len, sum) ->
      let payload = Bytes.create len in
      if really_read fd payload 0 len < len then Bad Truncated
      else
        let payload = Bytes.to_string payload in
        if not (String.equal (Digest.string payload) sum) then
          Bad Bad_checksum
        else Frame payload)

let write fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
