(** Possibly-unbounded capacities.

    The paper's static evaluation (Table 3, Figure 4) uses register
    banks and inter-level bandwidth with an unbounded number of
    registers/ports, written [S∞], [4C∞S∞], ...; we model those with a
    dedicated constructor instead of a sentinel integer. *)

type t = Finite of int | Inf

(** Raises [Invalid_argument] on a negative capacity. *)
val of_int : int -> t

val is_inf : t -> bool

(** [fits n c] is true when [n] units fit in capacity [c]. *)
val fits : int -> t -> bool

val exceeds : int -> t -> bool
val to_int_opt : t -> int option

(** Raises [Invalid_argument] on [Inf]. *)
val to_int_exn : t -> int

val min : t -> t -> t
val equal : t -> t -> bool

(** ["inf"] or the decimal count — the token used by {!Rf.notation}. *)
val to_string : t -> string

(** Inverse of {!to_string}; raises [Failure] on malformed input. *)
val of_string : string -> t
