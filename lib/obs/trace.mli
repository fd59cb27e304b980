(** The per-work-unit recording handle that instrumented code receives.

    [off] is the fast path: emission sites guard with {!enabled} (one
    branch, no allocation), so a disabled trace costs nothing
    measurable.  An enabled trace buffers events in one mutable cell
    owned by exactly one worker — recording needs no synchronization;
    {!Tracer.commit} later replays the buffer into the suite-level
    sinks in input order. *)

type t

(** The disabled handle; {!enabled} is [false] and {!emit} is a no-op. *)
val off : t

(** A fresh enabled buffer for one unit of work (one loop, one kernel);
    [label] tags every event of the unit in serialized output. *)
val create : label:string -> t

(** Guard event construction with this: [if Trace.enabled t then
    Trace.emit t (Event.Place ...)] allocates nothing when disabled. *)
val enabled : t -> bool

val emit : t -> Event.t -> unit

val label : t -> string

(** Buffered events in emission order (the empty list when disabled). *)
val events : t -> Event.t list

(** [span t phase f] runs [f ()]; when enabled, a [Phase {phase; ns}]
    event with the wall-clock duration in integer nanoseconds is
    emitted after [f] returns (also on exception). *)
val span : t -> Event.phase -> (unit -> 'a) -> 'a
