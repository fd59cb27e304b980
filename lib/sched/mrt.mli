(** Modulo reservation table — flat, data-oriented implementation.

    Tracks, for every hardware resource and every slot in [0, II), how
    many units are occupied and by which nodes.  Non-pipelined
    operations occupy their resource for several consecutive cycles (all
    taken modulo II).  Occupancy is count-based: the table checks that
    no slot exceeds the unit count.

    Resources are encoded as small integer row codes over one flat
    counts array, so [can_place_c] is pure array probing; the test suite
    keeps the original association-based implementation (test/mrt_ref.ml)
    as the executable specification, and QCheck asserts observational
    equivalence. *)

type t

(** Raises [Invalid_argument] for [ii < 1].  When [arena] is given, the
    table borrows its flat buffers from it (see {!Arena}); at most one
    live table may use a given arena. *)
val create : ?arena:Arena.t -> Hcrf_machine.Config.t -> ii:int -> t

val is_placed : t -> int -> bool

(** Release everything [node] holds (no-op when not placed). *)
val remove : t -> node:int -> unit

(** Occupancy count of a resource at a modulo slot. *)
val occupancy : t -> Topology.resource -> slot:int -> int

(** The sum of {!occupancy} over every slot, in O(1): a per-row total
    that [place_c]/[remove] maintain. *)
val total_occupancy : t -> Topology.resource -> int

(** The slots of a resource whose {!occupancy} has reached its unit
    count (all II of them for a resource of zero units, none for an
    unbounded one), in O(1): a per-row count that [place_c]/[remove]
    maintain. *)
val saturated : t -> Topology.resource -> int

(** {1 Compiled uses}

    A [uses] list (resource, duration) is compiled once against a
    table and then probed at many cycles without list traversal or
    hashing — the scheduler's inner candidate loop.  Compiled uses are
    only valid for tables of the same configuration and II they were
    compiled against. *)

type cuses

(** Raises [Invalid_argument] if a resource is not in the
    configuration. *)
val compile : t -> (Topology.resource * int) list -> cuses

(** [fits_empty config uses]: could [uses] be reserved in an empty
    table of [config], at any II and cycle?  A resource asked for more
    units in one cycle than it has fails.  Partial application builds
    the one empty table every vector is probed in.  Raises
    [Invalid_argument] as {!compile} does. *)
val fits_empty :
  Hcrf_machine.Config.t -> (Topology.resource * int) list -> bool

(** Can [cuses] be reserved at [cycle]? *)
val can_place_c : t -> cuses -> cycle:int -> bool

(** Does [cuses] fit at some cycle, i.e. at some slot in [0, II)?  O(1)
    for a vector of one single-cycle entry (from {!saturated}); any
    other vector is probed slot by slot. *)
val can_place_any_c : t -> cuses -> bool

(** Reserve; raises [Invalid_argument] if [node] is already placed or
    negative.  What a node holds is recorded in per-node arrays indexed
    by its id. *)
val place_c : t -> node:int -> cuses -> cycle:int -> unit

(** Nodes whose ejection would make room for [cuses] at [cycle]: for
    every full resource slot, the most recently placed occupant. *)
val conflicts_c : t -> cuses -> cycle:int -> int list
