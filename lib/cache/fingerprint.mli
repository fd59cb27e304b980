(** Canonical, collision-resistant fingerprints of scheduling inputs.

    A fingerprint is a 128-bit digest of a *canonical* encoding of the
    value, so that semantically identical inputs hash equal while any
    semantic change (an opcode, a latency, a dependence distance, a
    memory stream, a register count, a scheduler option) changes the
    digest with overwhelming probability.

    Loop fingerprints are computed with Weisfeiler–Lehman color
    refinement on integer ranks: node ids never enter the key, only
    operation kinds, memory streams, invariant reads and the multiset
    structure of the (dep, distance)-labelled edges.  Two loops that
    differ only by a node renumbering or by the order edges were
    inserted therefore hash equal; renaming the loop does not change
    the fingerprint either (the name does not affect any scheduling
    outcome).  Key bytes are stable only within one version of the
    stage memo ([Hcrf_eval.Memo.version]), which persists them. *)

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

(** Fingerprint of a loop: its graph (with memory streams as node
    attributes), trip count and entry count.  The loop's name is
    deliberately excluded.  A node's class starts as its label (kind,
    invariants read, first memory stream's base and stride); each
    round replaces it by the rank of its signature (class, then its
    in- and out-edges as sorted (dep, distance, neighbour class)
    lists) in the sorted table of the round's distinct signatures,
    until a round splits no class.  One MD5 covers the transcript:
    the label table, every round's signature table, then the class
    sizes, the sorted edge and invariant-consumer multisets over the
    final classes, and the trip and entry counts.  Raises
    [Invalid_argument] when an edge or invariant consumer names a node
    the graph lacks (see {!Hcrf_ir.Ddg.validate}). *)
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
