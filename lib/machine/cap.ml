(** Possibly-unbounded capacities.

    The paper's static evaluation (Table 3, Figure 4) uses register banks
    and inter-level bandwidth with an unbounded number of registers/ports,
    written [S∞], [4C∞S∞], ...  We model those with a dedicated constructor
    instead of a sentinel integer. *)

type t = Finite of int | Inf

let of_int n =
  if n < 0 then invalid_arg "Cap.of_int: negative capacity" else Finite n

let is_inf = function Inf -> true | Finite _ -> false

(** [fits n c] is true when [n] units fit in capacity [c]. *)
let fits n = function Inf -> true | Finite c -> n <= c

let exceeds n c = not (fits n c)

let to_int_opt = function Finite n -> Some n | Inf -> None

(** Numeric value for arithmetic contexts that need one; raises on [Inf]. *)
let to_int_exn = function
  | Finite n -> n
  | Inf -> invalid_arg "Cap.to_int_exn: unbounded capacity"

let min a b =
  match (a, b) with
  | Inf, x | x, Inf -> x
  | Finite a, Finite b -> Finite (Stdlib.min a b)

let equal a b =
  match (a, b) with
  | Inf, Inf -> true
  | Finite a, Finite b -> a = b
  | Inf, Finite _ | Finite _, Inf -> false

let to_string = function Finite n -> string_of_int n | Inf -> "inf"

(** Parse ["inf"] or a non-negative integer; raises [Failure] on
    anything else (notation parsing wants a loud error, not a silent
    default). *)
let of_string s =
  if s = "inf" then Inf
  else
    match int_of_string_opt s with
    | Some n when n >= 0 -> Finite n
    | Some _ | None -> Fmt.failwith "Cap.of_string: bad capacity %S" s
