(** Priority list of the iterative scheduler.

    Lower priority value = scheduled earlier.  Original nodes carry
    their HRMS ordering index; nodes inserted during scheduling
    (communication, spill) are given fractional priorities adjacent to
    the operation they serve, and ejected nodes are re-queued with their
    original priority (§5.1).

    An indexed binary heap: [mem], [push], [pop] and [remove] touch no
    hash table, and memory grows with the largest queued node id. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int
val mem : t -> int -> bool

(** Queue a node.  A node is queued at most once and keeps one
    priority: pushing a queued node again with the same priority does
    nothing, with another priority raises [Invalid_argument] (as does a
    negative node). *)
val push : t -> priority:float -> int -> unit

(** The lexicographic minimum of (priority, node), removed; [None]
    when empty. *)
val pop : t -> int option

(** Unqueue a node; nothing happens when it is not queued. *)
val remove : t -> int -> unit
