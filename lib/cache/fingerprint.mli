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
    name does not affect any scheduling outcome).

    Every fingerprint is the MD5 of one {!Hcrf_ir.Transcript}.  Key
    bytes are stable only within one version of the schedule store
    ({!Store.version}), which files entries under them. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int

(** Lower-case hexadecimal rendering (stable; used as on-disk file
    names). *)
val to_hex : t -> string

(** Fingerprint of an opaque label (e.g. a memory-scenario tag). *)
val of_string : string -> t

(** Combine fingerprints into one.  Order-sensitive. *)
val combine : t list -> t

(** Fingerprint of a loop: the key it carries, {!Hcrf_ir.Loop.key}. *)
val of_loop : Hcrf_ir.Loop.t -> t

(** Fingerprint of a full machine configuration: resources, latencies,
    clock and miss latency (as IEEE-754 bytes), then the register file
    organization (including port and bus counts).  A port or level
    field that is absent, or unbounded on both sides, writes nothing,
    so [4C16S16@rinfwinf] and [4C16S16] share a key.  The
    configuration's display name is excluded. *)
val of_config : Hcrf_machine.Config.t -> t

(** Fingerprint of scheduler options.  [load_override] is a function
    and is not sampled: every caller derives it deterministically from
    inputs the key already covers (the memory scenario and the loop). *)
val of_options : Hcrf_sched.Engine.options -> t
