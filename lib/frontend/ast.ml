(** A small loop language, playing the role of the ICTINEO front end:
    write the body of an innermost loop as scalar/array expressions and
    {!Compile} turns it into a dependence graph with memory streams,
    loop-carried distances and IF-converted conditionals.

    The iteration variable is implicit ([i]); array references are
    [arr "A" k] for [A.(i + k)], loop-carried scalars are [prev "s" d]
    for the value [s] had [d] iterations ago, and [param "alpha"] is a
    loop invariant. *)

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

(* Convenience constructors for readable loop definitions. *)
let arr ?(off = 0) a = Arr (a, off)
let var s = Var s
let prev ?(d = 1) s = Prev (s, d)
let param s = Param s
let ( +: ) a b = Add (a, b)
let ( -: ) a b = Sub (a, b)
let ( *: ) a b = Mul (a, b)
let ( /: ) a b = Div (a, b)
let sqrt_ e = Sqrt e
let select c a b = Select (c, a, b)
let def s e = Def (s, e)
let store ?(off = 0) a e = Store (a, off, e)
let if_ c t e = If (c, t, e)

let make ?(trip_count = 1000) ?(entries = 1) ~name body =
  { name; body; trip_count; entries }

let rec pp_expr ppf = function
  | Arr (a, 0) -> Fmt.pf ppf "%s[i]" a
  | Arr (a, k) when k > 0 -> Fmt.pf ppf "%s[i+%d]" a k
  | Arr (a, k) -> Fmt.pf ppf "%s[i%d]" a k
  | Var s -> Fmt.string ppf s
  | Prev (s, d) -> Fmt.pf ppf "%s@@-%d" s d
  | Param s -> Fmt.pf ppf "$%s" s
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_expr a pp_expr b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp_expr a pp_expr b
  | Sqrt e -> Fmt.pf ppf "sqrt(%a)" pp_expr e
  | Select (c, a, b) ->
    Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

let rec pp_stmt ppf = function
  | Def (s, e) -> Fmt.pf ppf "%s = %a" s pp_expr e
  | Store (a, 0, e) -> Fmt.pf ppf "%s[i] = %a" a pp_expr e
  | Store (a, k, e) -> Fmt.pf ppf "%s[i+%d] = %a" a k pp_expr e
  | If (c, t, e) ->
    Fmt.pf ppf "if %a { %a } else { %a }" pp_expr c
      Fmt.(list ~sep:semi pp_stmt)
      t
      Fmt.(list ~sep:semi pp_stmt)
      e

let pp ppf t =
  Fmt.pf ppf "@[<v>loop %s (N=%d, E=%d):@,%a@]" t.name t.trip_count
    t.entries
    Fmt.(list ~sep:cut (fun ppf s -> Fmt.pf ppf "  %a" pp_stmt s))
    t.body

(* The digest is MD5 over a {!Hcrf_ir.Transcript}: one tag byte per
   constructor, varint ints, every string and statement list prefixed
   by its length.  Every part is self-delimiting, so two kernels share
   a transcript only when they are structurally equal, however their
   nodes and strings were built or shared. *)
module T = Hcrf_ir.Transcript

let rec add_expr w = function
  | Arr (a, k) -> T.tag w 'a'; T.string w a; T.int w k
  | Var s -> T.tag w 'v'; T.string w s
  | Prev (s, d) -> T.tag w 'p'; T.string w s; T.int w d
  | Param s -> T.tag w '$'; T.string w s
  | Add (x, y) -> T.tag w '+'; add_expr w x; add_expr w y
  | Sub (x, y) -> T.tag w '-'; add_expr w x; add_expr w y
  | Mul (x, y) -> T.tag w '*'; add_expr w x; add_expr w y
  | Div (x, y) -> T.tag w '/'; add_expr w x; add_expr w y
  | Sqrt x -> T.tag w 'r'; add_expr w x
  | Select (c, x, y) -> T.tag w '?'; add_expr w c; add_expr w x; add_expr w y

let rec add_stmts w l =
  T.int w (List.length l);
  List.iter (add_stmt w) l

and add_stmt w = function
  | Def (s, e) -> T.tag w 'D'; T.string w s; add_expr w e
  | Store (a, k, e) -> T.tag w 'S'; T.string w a; T.int w k; add_expr w e
  | If (c, t, e) -> T.tag w 'I'; add_expr w c; add_stmts w t; add_stmts w e

let digest (t : t) =
  let w = T.create 256 in
  T.string w t.name;
  add_stmts w t.body;
  T.int w t.trip_count;
  T.int w t.entries;
  T.digest w
