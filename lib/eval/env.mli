(** One home for every [HCRF_*] environment variable, so a variable
    behaves identically in the benchmark harness and the CLI:

    - [HCRF_LOOPS=<n>]  workbench size override;
    - [HCRF_JOBS=<n>]   worker-domain count;
    - [HCRF_CONFIG=<notation>] machine configuration pin (full extended
      grammar, e.g. [4C16S16-L3:64@r2w1]);
    - [HCRF_CACHE=<dir>] schedule cache backed by [dir]
      ([HCRF_CACHE=""] for in-memory only);
    - [HCRF_INCR=on|off|<dir>] incremental stage memo (in-memory for
      [on]; persisted under [dir] otherwise);
    - [HCRF_TRACE=<file>] JSONL event trace written to [file], plus
      in-process counters ([HCRF_TRACE=""] for counters only);
    - [HCRF_SERVE_ADDR=<addr>] default daemon address for [hcrf_serve]
      and the serve-bench client (a unix socket path, or [host:port]);
    - [HCRF_SERVE_LRU=<n>] capacity of the daemon's in-memory LRU tier.

    Every parser warns (via {!Logs}) before falling back on a value it
    cannot use — a typo must never silently change what runs. *)

(** The variable names this version understands. *)
val known : string list

(** [HCRF_LOOPS]; [None] when unset or unusable (warned). *)
val loops : unit -> int option

(** [HCRF_CONFIG=<notation>]: the machine configuration drivers should
    pin, in the full extended grammar (["4C16S16-L3:64@r2w1"]) —
    published hardware when the notation names a Table-5 point, the
    analytic model otherwise.  [None] when unset or malformed
    (warned). *)
val config : unit -> Hcrf_machine.Config.t option

(** [HCRF_JOBS]; defaults to {!Par.default_jobs} (warned when set but
    unusable). *)
val jobs : unit -> int

(** [HCRF_CACHE]; a fresh cache per call — call once per process. *)
val cache : unit -> Hcrf_cache.Cache.t option

type incr_spec = Incr_off | Incr_memory | Incr_dir of string

(** [HCRF_INCR] as a spec (no side effects): unset, ["off"] or ["0"]
    are {!Incr_off}; [""], ["on"] or ["1"] are {!Incr_memory}; anything
    else names the directory a persistent memo lives in. *)
val incr : unit -> incr_spec

(** Build the stage memo a spec asks for ({!Incr_dir} loads
    [dir/memo.v4] and backs its schedule cache with the store shards
    under [dir]) — a fresh memo per call, so call once per process. *)
val memo_of_spec : incr_spec -> Memo.t option

(** [memo_of_spec (incr ())]. *)
val memo : unit -> Memo.t option

(** [HCRF_SERVE_ADDR]; [None] when unset or empty. *)
val serve_addr : unit -> string option

(** Default capacity of the daemon's in-memory LRU tier. *)
val default_serve_lru : int

(** [HCRF_SERVE_LRU]; defaults to {!default_serve_lru} (warned when set
    but unusable). *)
val serve_lru : unit -> int

type trace_spec = Off | Counters_only | File of string

(** [HCRF_TRACE] as a spec (no side effects). *)
val trace : unit -> trace_spec

(** Build a tracer: [Off] is {!Hcrf_obs.Tracer.null}; the other specs
    include a [Counters] sink; an unwritable [File] degrades to
    counters-only with a warning.  Opens the trace file — call once per
    process and {!Hcrf_obs.Tracer.close} it at exit. *)
val tracer_of_spec : trace_spec -> Hcrf_obs.Tracer.t

(** [tracer_of_spec (trace ())]. *)
val tracer : unit -> Hcrf_obs.Tracer.t

(** Warn about any [HCRF_*] environment variable not in {!known} — a
    misspelled knob must not be silently inert. *)
val warn_unknown : unit -> unit
