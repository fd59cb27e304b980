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

(* The digest is MD5 over an explicit transcript: one tag byte per
   constructor, ints as zigzag varints (7 bits a byte, high bit set on
   all but the last), every string and statement list prefixed by its
   length.  Every part is self-delimiting, so two kernels share a
   transcript only when they are structurally equal, however their
   nodes and strings were built or shared. *)
let add_int b n =
  let u = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !u land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !u)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let rec add_expr b = function
  | Arr (a, k) -> Buffer.add_char b 'a'; add_string b a; add_int b k
  | Var s -> Buffer.add_char b 'v'; add_string b s
  | Prev (s, d) -> Buffer.add_char b 'p'; add_string b s; add_int b d
  | Param s -> Buffer.add_char b '$'; add_string b s
  | Add (x, y) -> Buffer.add_char b '+'; add_expr b x; add_expr b y
  | Sub (x, y) -> Buffer.add_char b '-'; add_expr b x; add_expr b y
  | Mul (x, y) -> Buffer.add_char b '*'; add_expr b x; add_expr b y
  | Div (x, y) -> Buffer.add_char b '/'; add_expr b x; add_expr b y
  | Sqrt x -> Buffer.add_char b 'r'; add_expr b x
  | Select (c, x, y) ->
    Buffer.add_char b '?'; add_expr b c; add_expr b x; add_expr b y

let rec add_stmts b l =
  add_int b (List.length l);
  List.iter (add_stmt b) l

and add_stmt b = function
  | Def (s, e) -> Buffer.add_char b 'D'; add_string b s; add_expr b e
  | Store (a, k, e) ->
    Buffer.add_char b 'S'; add_string b a; add_int b k; add_expr b e
  | If (c, t, e) ->
    Buffer.add_char b 'I'; add_expr b c; add_stmts b t; add_stmts b e

let digest (t : t) =
  let b = Buffer.create 256 in
  add_string b t.name;
  add_stmts b t.body;
  add_int b t.trip_count;
  add_int b t.entries;
  Digest.string (Buffer.contents b)
