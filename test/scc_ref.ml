(** Reference strongly connected components (pre-array implementation).

    The hash-table Tarjan walk {!Hcrf_ir.Scc.sccs} used before it ran
    over position-indexed arrays, kept as the executable specification:
    the array walk must return the same components, each in the same
    node order, in the same order, and the QCheck harness in
    [test_ir.ml] checks it on suite, kernel and generated graphs,
    sparse ids included. *)

open Hcrf_ir

let sccs (g : Ddg.t) : int list list =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun (e : Ddg.edge) ->
        let w = e.dst in
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Ddg.succs g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      result := pop [] :: !result
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v)
    (Ddg.nodes g);
  !result
