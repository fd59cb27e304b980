(** Compiler from the loop language to a schedulable {!Hcrf_ir.Loop.t}.

    The pipeline mirrors what the paper's front end provides:

    - {!If_convert} turns conditionals into straight-line selects;
    - array reads are CSE'd within an iteration (and invalidated by a
      store to the same location);
    - unit-stride dependence analysis inserts the memory edges: a store
      to [A.(i+k_s)] and a load of [A.(i+k_l)] are connected by a true
      memory dependence of distance [k_s - k_l] when positive, an anti
      dependence of distance [k_l - k_s] when negative, and ordered
      within the iteration when equal; store/store pairs get output
      dependences the same way;
    - loop-carried scalars ([prev]) become distance-d register flow;
    - a select compiles to two multiplies and a blending add (the cost
      of predicated execution);
    - every array reference gets a memory stream for the cache
      simulator. *)

open Hcrf_ir
open Ast

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let element_bytes = 8

type value = Node of int * int (* producer, distance *) | Inv of int

type state = {
  g : Ddg.t;
  scalars : (string, int) Hashtbl.t;
  params : (string, int) Hashtbl.t;
  loads : (string * int, int) Hashtbl.t; (* live CSE entries *)
  arrays : (string, int) Hashtbl.t;      (* array -> allocation index *)
  mutable refs : (bool * string * int * int) list;
      (** (is_store, array, offset, node), in program order *)
  mutable fixups : (int * string * int) list;
      (** consumer, scalar, distance — resolved after the body *)
}

let array_index st a =
  match Hashtbl.find_opt st.arrays a with
  | Some i -> i
  | None ->
    let i = Hashtbl.length st.arrays in
    Hashtbl.replace st.arrays a i;
    i

let array_base st a =
  let i = array_index st a in
  (i * (1 lsl 20)) + (i * 1056)

let connect st (v : value) ~consumer =
  match v with
  | Node (p, d) -> Ddg.add_edge st.g ~distance:d ~dep:Dep.True p consumer
  | Inv id -> Ddg.add_invariant_consumer st.g ~inv_id:id consumer

let rec compile_expr st (e : expr) : value =
  match e with
  | Param s ->
    let id =
      match Hashtbl.find_opt st.params s with
      | Some id -> id
      | None ->
        let id = Ddg.add_invariant st.g ~consumers:[] in
        Hashtbl.replace st.params s id;
        id
    in
    Inv id
  | Var s -> (
    match Hashtbl.find_opt st.scalars s with
    | Some n -> Node (n, 0)
    | None -> errf "use of undefined scalar %s" s)
  | Prev (s, d) ->
    if d < 1 then errf "prev %s needs distance >= 1" s;
    (* the defining node may come later in the body: defer the edge *)
    Node (-1, d) (* placeholder; [operand] handles it *)
  | Arr (a, k) -> (
    match Hashtbl.find_opt st.loads (a, k) with
    | Some n -> Node (n, 0)
    | None ->
      let n = Ddg.add_node st.g Op.Load in
      Hashtbl.replace st.loads (a, k) n;
      st.refs <- (false, a, k, n) :: st.refs;
      Node (n, 0))
  | Add (a, b) | Sub (a, b) -> binary st Op.Fadd a b
  | Mul (a, b) -> binary st Op.Fmul a b
  | Div (a, b) -> binary st Op.Fdiv a b
  | Sqrt a ->
    let n = Ddg.add_node st.g Op.Fsqrt in
    operand st a ~consumer:n;
    Node (n, 0)
  | Select (c, a, b) ->
    (* predicated execution: two guarded values blended together *)
    let m1 = Ddg.add_node st.g Op.Fmul in
    operand st c ~consumer:m1;
    operand st a ~consumer:m1;
    let m2 = Ddg.add_node st.g Op.Fmul in
    operand st c ~consumer:m2;
    operand st b ~consumer:m2;
    let blend = Ddg.add_node st.g Op.Fadd in
    Ddg.add_edge st.g ~dep:Dep.True m1 blend;
    Ddg.add_edge st.g ~dep:Dep.True m2 blend;
    Node (blend, 0)

and binary st kind a b =
  let n = Ddg.add_node st.g kind in
  operand st a ~consumer:n;
  operand st b ~consumer:n;
  Node (n, 0)

(* Compile [e] and wire it as an operand of [consumer]. *)
and operand st e ~consumer =
  match e with
  | Prev (s, d) ->
    if d < 1 then errf "prev %s needs distance >= 1" s;
    st.fixups <- (consumer, s, d) :: st.fixups
  | _ -> connect st (compile_expr st e) ~consumer

let compile_stmt st = function
  | Def (s, e) -> (
    match compile_expr st e with
    | Node (n, 0) -> Hashtbl.replace st.scalars s n
    | Node (_, _) -> errf "%s: bind prev through an operation" s
    | Inv _ -> errf "%s: bind a parameter through an operation" s)
  | Store (a, k, e) ->
    let n = Ddg.add_node st.g Op.Store in
    operand st e ~consumer:n;
    st.refs <- (true, a, k, n) :: st.refs;
    (* a store kills the CSE entry for that location *)
    Hashtbl.remove st.loads (a, k)
  | If _ -> errf "conditional survived IF-conversion"

(* Memory dependences between two references of the same array (unit
   stride): the sign of the offset difference gives the direction and
   the distance; equal offsets are ordered by program order. *)
let memory_edges st =
  let refs = List.rev st.refs in
  let rec pairs = function
    | [] -> ()
    | (s1, a1, k1, n1) :: rest ->
      List.iter
        (fun (s2, a2, k2, n2) ->
          if a1 = a2 && (s1 || s2) then
            match (s1, s2) with
            | false, false -> ()
            | true, true ->
              if k1 > k2 then
                Ddg.add_edge st.g ~distance:(k1 - k2) ~dep:Dep.Output n1 n2
              else if k2 > k1 then
                Ddg.add_edge st.g ~distance:(k2 - k1) ~dep:Dep.Output n2 n1
              else Ddg.add_edge st.g ~distance:0 ~dep:Dep.Output n1 n2
            | _ ->
              let (st_n, st_k), (ld_n, ld_k) =
                if s1 then ((n1, k1), (n2, k2)) else ((n2, k2), (n1, k1))
              in
              if st_k > ld_k then
                (* the store writes what a later iteration loads *)
                Ddg.add_edge st.g ~distance:(st_k - ld_k) ~dep:Dep.True st_n
                  ld_n
              else if st_k < ld_k then
                (* the load reads what a later iteration overwrites *)
                Ddg.add_edge st.g ~distance:(ld_k - st_k) ~dep:Dep.Anti ld_n
                  st_n
              else if s1 then
                (* store first in program order: the load reads it *)
                Ddg.add_edge st.g ~distance:0 ~dep:Dep.True n1 n2
              else
                Ddg.add_edge st.g ~distance:0 ~dep:Dep.Anti n1 n2)
        rest;
      pairs rest
  in
  pairs refs

let streams st =
  List.rev_map
    (fun (_, a, k, n) ->
      { Loop.op = n; base = array_base st a + (k * element_bytes);
        stride = element_bytes })
    st.refs

(** Compile a loop; raises {!Error} on malformed input. *)
let compile (l : Ast.t) : Loop.t =
  let l = If_convert.run l in
  let st =
    {
      g = Ddg.create ~name:l.Ast.name ();
      scalars = Hashtbl.create 16;
      params = Hashtbl.create 8;
      loads = Hashtbl.create 16;
      arrays = Hashtbl.create 8;
      refs = [];
      fixups = [];
    }
  in
  List.iter (compile_stmt st) l.Ast.body;
  (* resolve loop-carried scalar references *)
  List.iter
    (fun (consumer, s, d) ->
      match Hashtbl.find_opt st.scalars s with
      | Some def -> Ddg.add_edge st.g ~distance:d ~dep:Dep.True def consumer
      | None -> errf "prev of undefined scalar %s" s)
    st.fixups;
  memory_edges st;
  if not (Ddg.validate st.g) then errf "internal: malformed graph";
  Loop.make ~trip_count:l.Ast.trip_count ~entries:l.Ast.entries
    ~streams:(streams st) st.g
