(** Deterministic frontend programs for incremental-evaluation
    experiments.  Pure functions of their arguments: no randomness, no
    clock. *)

open Hcrf_frontend.Ast

(* Six kernel shapes, parameterized by the kernel index (offsets,
   invariant names and trip/entry counts all vary with [i]). *)
let kernel i =
  let off = 1 + (i / 6 mod 3) in
  let trip_count = 60 + (20 * (i mod 5)) in
  let entries = 1 + (i mod 3) in
  let name = Printf.sprintf "k%03d" i in
  let p s = param (Printf.sprintf "%s%d" s (i / 6)) in
  let body =
    match i mod 6 with
    | 0 ->
      (* daxpy with a loop-carried store offset *)
      [ store "y" ((p "a" *: arr "x") +: arr ~off "y") ]
    | 1 ->
      (* reduction into a carried scalar *)
      [ def "s" (prev "s" +: (arr "x" *: arr "y")); store "acc" (var "s") ]
    | 2 ->
      (* three-point stencil *)
      [ store "y"
          ((arr ~off:(-off) "x" +: arr "x" +: arr ~off "x") *: p "w") ]
    | 3 ->
      (* read-modify-write with a dependent square *)
      [ store "a" (arr "a" +: p "c"); store ~off "b" (arr "a" *: arr "a") ]
    | 4 ->
      (* IF-converted select *)
      [ store "y" (select (arr "x") (arr "x" *: p "hi") (arr "x" -: p "lo")) ]
    | _ ->
      (* sqrt recurrence *)
      [ def "s" (sqrt_ (prev "s" +: arr "x")); store "r" (var "s" *: p "g") ]
  in
  make ~trip_count ~entries ~name body

let program ~n = List.init n kernel

(* Wrap the last assignment of a statement list with [+ param p]; an If
   recurses into whichever branch carries the last assignment. *)
let rec perturb_last p = function
  | [] -> [ def "edited" (param p) ]
  | [ Def (s, e) ] -> [ Def (s, Add (e, Param p)) ]
  | [ Store (a, k, e) ] -> [ Store (a, k, Add (e, Param p)) ]
  | [ If (c, t, []) ] -> [ If (c, perturb_last p t, []) ]
  | [ If (c, t, e) ] -> [ If (c, t, perturb_last p e) ]
  | st :: rest -> st :: perturb_last p rest

let edit ~round ~kernel prog =
  let n = List.length prog in
  if n = 0 then prog
  else
    let target = ((kernel mod n) + n) mod n in
    List.mapi
      (fun i (k : t) ->
        if i <> target then k
        else
          { k with
            body = perturb_last (Printf.sprintf "edit%d" round) k.body })
      prog
