(** Reference modulo reservation table (pre-flat implementation).

    The original association-based MRT, kept as the executable
    specification for the flat {!Hcrf_sched.Mrt}: QCheck drives both
    against random operation traces and asserts observational
    equivalence.  Not used by the engine. *)

open Hcrf_sched

type t

(** Raises [Invalid_argument] for [ii < 1]. *)
val create : Hcrf_machine.Config.t -> ii:int -> t

(** Can all of [uses] (resource, duration) be reserved at [cycle]? *)
val can_place : t -> (Topology.resource * int) list -> cycle:int -> bool

(** Reserve; raises [Invalid_argument] if [node] is already placed. *)
val place :
  t -> node:int -> (Topology.resource * int) list -> cycle:int -> unit

val is_placed : t -> int -> bool

(** Release everything [node] holds (no-op when not placed). *)
val remove : t -> node:int -> unit

(** Nodes whose ejection would make room for [uses] at [cycle]: for
    every full resource slot, the most recently placed occupant. *)
val conflicts :
  t -> (Topology.resource * int) list -> cycle:int -> int list

(** Occupancy count of a resource at a modulo slot. *)
val occupancy : t -> Topology.resource -> slot:int -> int
