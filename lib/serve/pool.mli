(** A persistent pool of worker domains for the daemon's cache misses.

    {!Hcrf_eval.Par} spawns domains per [map] call — right for batch
    runs, wasteful for a long-lived server handling a stream of
    single-loop requests.  This pool spawns its domains once; connection
    handlers enqueue thunks and block on {!await}, optionally with a
    deadline.  Every waiter wakes on {!fulfil}; OCaml's [Condition] has
    no timed wait, so one watchdog thread, busy only while some waiter
    holds a deadline, wakes the expired ones at most 10 ms late — far
    below the milliseconds-to-seconds granularity of scheduling
    work.

    Futures ({!promise}/{!fulfil}) are exposed separately from
    {!run} so the cold-storm coalescer can register a future under its
    fingerprint {e before} the computation is enqueued — a duplicate
    request arriving in between joins the future instead of starting a
    second computation. *)

type t

(** [create ~jobs] spawns [max 1 jobs] worker domains. *)
val create : jobs:int -> t

val jobs : t -> int

(** Enqueue a thunk; [false] when the pool is shut down (the thunk was
    not enqueued — callers run it inline or refuse). *)
val run : t -> (unit -> unit) -> bool

(** Finish queued thunks, then join every worker.  Idempotent. *)
val shutdown : t -> unit

(** {1 Futures} *)

type 'a future

val promise : unit -> 'a future

(** Raises [Invalid_argument] when already fulfilled. *)
val fulfil : 'a future -> ('a, exn) result -> unit

(** Block until fulfilled, or until [deadline] (absolute, as by
    [Unix.gettimeofday]) passes.  A fulfilment wakes the waiter at
    once; an expired deadline is noticed up to 10 ms late. *)
val await :
  ?deadline:float -> 'a future -> [ `Ok of 'a | `Exn of exn | `Timeout ]
