(** One home for every [HCRF_*] environment variable.

    The harness and the CLI used to parse these independently; keeping
    the parsers (and the warnings for near-miss values) here means a
    variable behaves identically everywhere it is honoured:

    - [HCRF_LOOPS=<n>]  workbench size override;
    - [HCRF_JOBS=<n>]   worker-domain count;
    - [HCRF_CONFIG=<notation>] machine configuration pin (full extended
      grammar, e.g. [4C16S16@r2w1]);
    - [HCRF_CACHE=<dir>] schedule cache backed by [dir]
      ([HCRF_CACHE=""] for in-memory only);
    - [HCRF_TRACE=<file>] JSONL event trace written to [file], plus
      in-process counters ([HCRF_TRACE=""] for counters only);
    - [HCRF_SERVE_ADDR=<addr>] default daemon address for [hcrf_serve]
      and the serve-bench client (a unix socket path, or [host:port]);
    - [HCRF_SERVE_LRU=<n>] capacity of the daemon's in-memory LRU tier.

    A typo'd value must not silently fall back (a full 1258-loop run
    because [HCRF_LOOPS=2O0] didn't parse is expensive), so every parser
    warns before using its default; {!warn_unknown} additionally flags
    [HCRF_*] names this version does not know at all. *)

let known =
  [ "HCRF_CACHE"; "HCRF_CONFIG"; "HCRF_JOBS"; "HCRF_LOOPS";
    "HCRF_SERVE_ADDR"; "HCRF_SERVE_LRU"; "HCRF_TRACE" ]

(* HCRF_LOOPS override; anything non-numeric or <= 0 warns loudly. *)
let loops () =
  match Sys.getenv_opt "HCRF_LOOPS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Some n
    | Some _ | None ->
      Logs.warn (fun m ->
          m "ignoring HCRF_LOOPS=%S (expected a positive integer); \
             falling back to the default loop count" s);
      None)

(* HCRF_CONFIG=<notation> pins the machine configuration in drivers
   that honour it, using the full extended grammar (e.g.
   "4C16S16@r2w1"): published Table-5 hardware when the notation
   names a published point, the analytic model otherwise.  A malformed
   notation warns and is ignored — it must never silently change which
   machine runs. *)
let config () =
  match Sys.getenv_opt "HCRF_CONFIG" with
  | None | Some "" -> None
  | Some s -> (
    match Hcrf_model.Presets.of_notation s with
    | c -> Some c
    | exception (Failure msg | Invalid_argument msg) ->
      Logs.warn (fun m ->
          m "ignoring HCRF_CONFIG=%S (%s); using the driver's default" s
            msg);
      None)

let jobs () =
  match Sys.getenv_opt "HCRF_JOBS" with
  | None -> Par.default_jobs ()
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | Some _ | None ->
      Logs.warn (fun m ->
          m "ignoring HCRF_JOBS=%S (expected a positive integer); using %d"
            s (Par.default_jobs ()));
      Par.default_jobs ())

(* HCRF_CACHE=<dir> turns the schedule cache on; the empty string asks
   for an in-memory-only cache (useful when experiments repeat a
   (loop, config) pair within one invocation). *)
let cache () =
  match Sys.getenv_opt "HCRF_CACHE" with
  | None -> None
  | Some "" -> Some (Hcrf_cache.Cache.create ())
  | Some dir -> Some (Hcrf_cache.Cache.create ~dir ())

(* Daemon address: honoured by hcrf_serve and the serve-bench client so
   scripts can point a whole pipeline at one socket. *)
let serve_addr () =
  match Sys.getenv_opt "HCRF_SERVE_ADDR" with
  | None | Some "" -> None
  | Some addr -> Some addr

let default_serve_lru = 256

let serve_lru () =
  match Sys.getenv_opt "HCRF_SERVE_LRU" with
  | None -> default_serve_lru
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | Some _ | None ->
      Logs.warn (fun m ->
          m "ignoring HCRF_SERVE_LRU=%S (expected a positive integer); \
             using %d"
            s default_serve_lru);
      default_serve_lru)

type trace_spec = Off | Counters_only | File of string

let trace () =
  match Sys.getenv_opt "HCRF_TRACE" with
  | None -> Off
  | Some "" -> Counters_only
  | Some path -> File path

(** Build a tracer from a spec.  [Off] gives the null tracer (zero
    recording cost); the other specs always include a [Counters] sink so
    callers can report sorted event totals.  An unwritable trace file
    degrades to counters-only with a warning, mirroring the cache. *)
let tracer_of_spec = function
  | Off -> Hcrf_obs.Tracer.null
  | Counters_only ->
    Hcrf_obs.Tracer.make
      [ Hcrf_obs.Tracer.Counters (Hcrf_obs.Counters.create ()) ]
  | File path -> (
    let counters = Hcrf_obs.Tracer.Counters (Hcrf_obs.Counters.create ()) in
    match Hcrf_obs.Jsonl.create path with
    | jsonl -> Hcrf_obs.Tracer.make [ counters; Hcrf_obs.Tracer.Jsonl jsonl ]
    | exception Sys_error msg ->
      Logs.warn (fun m ->
          m "cannot write trace file %s (%s); tracing counters only" path
            msg);
      Hcrf_obs.Tracer.make [ counters ])

let tracer () = tracer_of_spec (trace ())

let warn_unknown () =
  Array.iter
    (fun kv ->
      match String.index_opt kv '=' with
      | None -> ()
      | Some i ->
        let name = String.sub kv 0 i in
        if
          String.length name >= 5
          && String.sub name 0 5 = "HCRF_"
          && not (List.mem name known)
        then
          Logs.warn (fun m ->
              m "unknown environment variable %s (known: %s)" name
                (String.concat ", " known)))
    (Unix.environment ())
