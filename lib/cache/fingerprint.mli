(** Canonical, collision-resistant fingerprints of scheduling inputs.

    A fingerprint is a 128-bit digest of a *canonical* encoding of the
    value, so that semantically identical inputs hash equal while any
    semantic change (an opcode, a latency, a dependence distance, a
    memory stream, a register count, a scheduler option) changes the
    digest with overwhelming probability.

    Loop fingerprints include the node ids: the scheduler breaks ties
    by id (cluster choice, priority queue) and numbers the nodes it
    inserts from the graph's id counter, so a stored schedule is bound
    to concrete ids and only replays for a loop with exactly these ids
    and counters.  Two loops that differ only in the order of their
    adjacency, stream or invariant lists hash equal; a renumbered twin
    does not.  Renaming the loop does not change the fingerprint (the
    name does not affect any scheduling outcome).  Key bytes are stable
    only within one version of the schedule store ({!Store.version})
    and of the stage memo, which persist them. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int

(** Lower-case hexadecimal rendering (stable; used as on-disk file
    names). *)
val to_hex : t -> string

val pp : Format.formatter -> t -> unit

(** Fingerprint of an opaque label (e.g. a memory-scenario tag). *)
val of_string : string -> t

(** Combine fingerprints into one.  Order-sensitive. *)
val combine : t list -> t

(** Fingerprint of a loop: one MD5 over a varint transcript.  In
    node-id order it holds each node's id and kind, then its out-edges
    sorted as (dst, dep, distance); after the nodes come the memory
    streams sorted as (op, base, stride), the invariants by id with
    their consumers sorted, the trip and entry counts, and the graph's
    id counters ([repr_next_id], [repr_next_inv]).  The loop's name is
    deliberately excluded. *)
val of_loop : Hcrf_ir.Loop.t -> t

(** Fingerprint of a full machine configuration: resources, register
    file organization (including port and bus counts), latencies, clock
    and miss latency.  The configuration's display name is excluded. *)
val of_config : Hcrf_machine.Config.t -> t

(** Fingerprint of scheduler options.  [probe] lists the node ids on
    which [load_override] is sampled (it is a function and cannot be
    hashed directly); the default samples nothing, which is correct
    whenever the override is derived deterministically from inputs
    already covered by the key. *)
val of_options : ?probe:int list -> Hcrf_sched.Engine.options -> t
