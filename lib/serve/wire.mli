(** The daemon's wire protocol: a small length-prefixed binary framing
    plus the request/response messages it carries.

    A frame is [magic "hcrfsrv6" | u32 BE payload length | 16-byte MD5
    of the payload | payload]; the payload is a one-byte message-kind
    tag followed by a [Marshal]-serialized message.  Mirroring the
    on-disk {!Hcrf_cache.Store} format, the unmarshaller only ever runs
    on bytes whose magic, length, kind tag and checksum all matched —
    a truncated, corrupt, oversized or garbage frame is reported as a
    {!frame_error}, never an exception, and never reaches [Marshal].

    [Marshal] payloads tie client and server to the same build, which
    is the intended deployment (one daemon per checkout, sharing its
    schedule cache); the versioned magic rejects frames from any other
    protocol revision.  Requests carry only closure-free data: notably
    {!options} is the plain subset of {!Hcrf_sched.Engine.options}
    without [load_override], which the runner derives from the memory
    scenario anyway (it is not part of cache keys either). *)

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

(** ["host:port"] when the suffix parses as a port, a unix-domain
    socket path otherwise. *)
val addr_of_string : string -> addr

val pp_addr : Format.formatter -> addr -> unit

(** The socket domain and address of [addr], for the daemon and its
    clients alike: a TCP host is an IP literal, else its first
    [gethostbyname] address, else loopback. *)
val sockaddr : addr -> Unix.socket_domain * Unix.sockaddr

(** {1 Messages} *)

(** Closure-free subset of {!Hcrf_sched.Engine.options}. *)
type options = {
  w_budget_ratio : int;
  w_backtracking : bool;
  w_ordering : [ `Hrms | `Topological ];
}

val options_of_engine : Hcrf_sched.Engine.options -> options

(** The missing [load_override] is taken from
    {!Hcrf_sched.Engine.default_options}; the runner replaces it from
    the scenario before scheduling, so nothing observable depends on
    it. *)
val engine_of_options : options -> Hcrf_sched.Engine.options

type schedule_request = {
  sr_loop : Hcrf_ir.Loop.repr;
  sr_config : Hcrf_machine.Config.t;
  sr_opts : options;
  sr_scenario : Hcrf_eval.Runner.memory_scenario;
  sr_timeout_ms : int;  (** 0: no deadline *)
}

(** Package a loop (with its evaluation context) as a request. *)
val request_of_loop :
  ?timeout_ms:int -> config:Hcrf_machine.Config.t ->
  opts:Hcrf_sched.Engine.options ->
  scenario:Hcrf_eval.Runner.memory_scenario -> Hcrf_ir.Loop.t ->
  schedule_request

(** Rebuild the loop; raises [Invalid_argument] on node ids that are
    not compact ({!Hcrf_ir.Ddg.compact}, checked on the request before
    any graph is built: every id lies in [\[0, repr_next_id)], and
    [repr_next_id] is at most [2 * n + 64] for [n] listed nodes, so the
    graph's and the scheduler's per-node arrays stay proportional to
    the request), non-positive counts, a repeated node id, or a graph
    that fails {!Hcrf_ir.Ddg.validate}.
    Callers reject such requests as malformed.  Every loop the
    workload generators, the frontend and the fuzz shrinker produce
    is compact in this sense. *)
val loop_of_request : schedule_request -> Hcrf_ir.Loop.t

type request = Schedule of schedule_request | Stats | Ping

(** Live counters of a daemon, as returned by a [Stats] request. *)
type serve_stats = {
  requests : int;      (** schedule requests accepted *)
  lru_hits : int;      (** answered from the in-memory LRU tier *)
  lru_evictions : int;
  lru_length : int;
  lru_capacity : int;
  tier2_hits : int;    (** answered from the shared cache (memory/disk) *)
  computed : int;      (** engine computations started *)
  coalesced : int;     (** requests that joined an in-flight computation *)
  rejected : int;      (** malformed frames/requests refused *)
  timeouts : int;      (** requests whose deadline expired *)
  cache : Hcrf_cache.Cache.stats;
  counters : (string * int) list;
      (** {!Hcrf_obs.Counters.counts} snapshot of the daemon tracer *)
}

val pp_serve_stats : Format.formatter -> serve_stats -> unit

type error_kind = Malformed | Too_big | Timed_out | Draining | Internal

val error_kind_name : error_kind -> string

type response =
  | Scheduled of Hcrf_cache.Entry.t
  | Stats_reply of serve_stats
  | Pong
  | Refused of error_kind * string

(** {1 Framing} *)

type frame_error =
  | Bad_magic
  | Too_large of int  (** claimed payload length *)
  | Truncated
  | Bad_checksum
  | Bad_payload of string

val pp_frame_error : Format.formatter -> frame_error -> unit

val header_size : int
val default_max_frame : int

(** Wrap a payload into a complete frame. *)
val frame : string -> string

(** Split a complete frame back into its payload (pure inverse of
    {!frame}; exposed for property tests). *)
val unframe : ?max_frame:int -> string -> (string, frame_error) result

(** The payload {!encode_request} frames: the request's kind tag and
    marshalled bytes.  Its MD5 is the frame's checksum, which keys the
    daemon's reply tier ({!Tiers}). *)
val request_payload : request -> string

val encode_request : request -> string
val encode_response : response -> string
val decode_request : string -> (request, frame_error) result
val decode_response : string -> (response, frame_error) result

(** {1 Socket helpers} *)

type read_outcome =
  | Frame of { payload : string; digest : Digest.t }
      (** [digest] is the payload's MD5, verified against the header *)
  | Eof
  | Bad of frame_error

(** Read exactly one frame; [Eof] only at a clean frame boundary,
    [Bad Truncated] when the peer died mid-frame.  On a [Bad] outcome
    the stream position is unspecified — close the connection.  The
    payload is the read buffer itself, not a copy. *)
val read_frame : ?max_frame:int -> Unix.file_descr -> read_outcome

(** Write a fully-framed string (e.g. {!encode_response} output). *)
val write : Unix.file_descr -> string -> unit
