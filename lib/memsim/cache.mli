(** Set-associative write-back cache with LRU replacement.

    The paper's real-memory scenario (§6.2) uses a 32 KB lockup-free
    first-level cache with 32-byte lines and up to 8 pending misses;
    this module is the array itself, {!Sim} adds the MSHR/timing
    model.  Line size and set count are powers of two only: line, set
    and tag are an arithmetic shift and a mask, which equal floored
    division and remainder, so negative addresses map to negative lines
    and valid sets. *)

type t = private {
  line_bytes : int;
  sets : int;
  assoc : int;
  line_shift : int;  (** [line_bytes = 1 lsl line_shift] *)
  set_shift : int;   (** [sets = 1 lsl set_shift] *)
  tags : int array;  (** [set * assoc + way] = tag *)
  lru : int array;   (** [set * assoc + way] = last-use stamp *)
  mutable stamp : int;  (** the last probe's stamp *)
}

(** Defaults: 32 KB, 32-byte lines, 2-way.  Raises [Invalid_argument]
    unless every size is positive, the line size is a power of two,
    [size_bytes] is a multiple of [line_bytes * assoc] and the set count
    it gives is a power of two. *)
val create : ?size_bytes:int -> ?line_bytes:int -> ?assoc:int -> unit -> t

val line_addr : t -> int -> int

(** Probe a line address ({!line_addr}); [true] on hit.  Allocates on
    miss (write-allocate for stores as well), replacing the least
    recently used way. *)
val probe : t -> int -> bool

(** [probe] of the address's line. *)
val access : t -> int -> bool
