(** A small loop language, playing the role of the ICTINEO front end:
    write the body of an innermost loop as scalar/array expressions and
    {!Compile} turns it into a dependence graph with memory streams,
    loop-carried distances and IF-converted conditionals.

    The iteration variable is implicit ([i]); array references are
    [arr "A" ~off:k] for [A.(i + k)], loop-carried scalars are
    [prev "s" ~d] for the value [s] had [d] iterations ago, and
    [param "alpha"] is a loop invariant. *)

type expr =
  | Arr of string * int      (** A.(i + k) *)
  | Var of string            (** scalar defined earlier in the body *)
  | Prev of string * int     (** scalar from d >= 1 iterations ago *)
  | Param of string          (** loop invariant *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Sqrt of expr
  | Select of expr * expr * expr
      (** IF-converted conditional value: cond ? then : else *)

type stmt =
  | Def of string * expr           (** s = e *)
  | Store of string * int * expr   (** A.(i + k) = e *)
  | If of expr * stmt list * stmt list
      (** structured conditional; the compiler IF-converts it *)

type t = {
  name : string;
  body : stmt list;
  trip_count : int;
  entries : int;
}

(** Constructors for readable loop definitions. *)

val arr : ?off:int -> string -> expr
val var : string -> expr
val prev : ?d:int -> string -> expr
val param : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val sqrt_ : expr -> expr
val select : expr -> expr -> expr -> expr
val def : string -> expr -> stmt
val store : ?off:int -> string -> expr -> stmt
val if_ : expr -> stmt list -> stmt list -> stmt
val make : ?trip_count:int -> ?entries:int -> name:string -> stmt list -> t

(** Canonical per-kernel content digest: MD5 over a
    {!Hcrf_ir.Transcript} (a tag byte per constructor, varint ints,
    length-prefixed strings and statement lists) of name, body, trip
    and entry counts.
    Structurally equal kernels digest equal whatever their physical
    sharing; any edit to any of those fields changes it.  The frontend
    stage of the incremental pipeline is keyed on this. *)
val digest : t -> string

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp : Format.formatter -> t -> unit
