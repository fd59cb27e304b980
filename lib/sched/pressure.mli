(** Incrementally maintained per-bank register requirements (MaxLives).

    Keeps the per-bank, per-modulo-slot count of simultaneously live
    values in sync with the schedule by deltas, so the engine's
    after-every-placement capacity check costs O(banks × II) instead of
    a full {!Lifetimes.of_schedule} recomputation; each bank's peak is
    cached until a delta touches that bank, so a check after a step
    that left a bank alone reads it in O(1).  Equivalence with the
    reference is part of the contract (and QCheck-verified): after any
    mark/flush sequence, {!pressure} equals [Lifetimes.pressure] of
    [Lifetimes.of_schedule], and {!lifetimes} returns the reference's
    exact list (same records, same increasing-definition order).

    The owner must [mark] every node whose lifetime may have changed:
    the node and its operand producers on place/unplace, and [e.src] on
    every edge change (wire {!Hcrf_ir.Ddg.set_watcher} to [mark]).
    Queries flush lazily. *)

type t

(** [create ?arena sched g]: an empty tracker for [sched]/[g]; at most
    one live tracker may borrow a given arena's pressure slots. *)
val create : ?arena:Arena.t -> Schedule.t -> Hcrf_ir.Ddg.t -> t

(** Mark [v]'s lifetime as possibly changed; cheap and idempotent. *)
val mark : t -> int -> unit

(** MaxLives of [bank], as [Lifetimes.pressure]; the caller adds the
    bank's resident invariants. *)
val pressure : t -> bank:Topology.bank -> int

(** The current lifetime list, identical to [Lifetimes.of_schedule]. *)
val lifetimes : t -> Lifetimes.lifetime list
