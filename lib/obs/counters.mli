(** The [Counters] sink: deterministic per-suite event histograms.

    Event counts (and event-derived magnitudes such as nodes inserted
    by spilling) depend only on what work was executed, so they are
    identical at any job count; phase wall-clock sums are kept in a
    separate table of integer nanoseconds and excluded from equality.
    All output is sorted by key — hash-table iteration order never
    reaches the output.

    A [Counters.t] is also the always-on registry of a component that
    counts whether or not tracing is on (the daemon's tiers, the stage
    memo): each fact is {!note}d once, into the registry and into the
    work unit's trace.

    No internal lock: a tracer sink is only fed from {!Tracer.commit},
    which serializes sink access; a registry is fed and read under its
    owner's lock. *)

type t

val create : unit -> t

val add : t -> Event.t -> unit
val add_all : t -> Event.t list -> unit

(** [note t trace ev] adds [ev] to [t] and records it in [trace] (a
    no-op when [trace] is disabled): one call per counted fact. *)
val note : t -> Trace.t -> Event.t -> unit

(** How many events with [ev]'s {!Event.key} were added (0 when
    none). *)
val count : t -> Event.t -> int

(** Deterministic counters, sorted by key. *)
val counts : t -> (string * int) list

(** Phase wall-clock sums in nanoseconds, sorted by key. *)
val timings : t -> (string * int) list

(** Total number of counted events (derived magnitude keys excluded). *)
val total_events : t -> int

(** Counts-only equality: the determinism contract. *)
val equal_counts : t -> t -> bool

(** Sorted ["key=count"] rendering of {!counts}. *)
val pp : Format.formatter -> t -> unit
