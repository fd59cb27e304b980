(* Reference specification of the loop fingerprint: the original
   MD5-chain Weisfeiler–Lehman refinement, in which every node color is
   itself an MD5 over length-prefixed part lists (one digest per node
   and two per edge per round).  [Hcrf_cache.Fingerprint.of_loop]
   replaces it with refinement on integer ranks and a single digest;
   the two must split loops into exactly the same equivalence classes,
   which test_cache.ml checks over the suite, the kernels, [Progs] and
   random loops.  Key bytes differ and are never compared. *)

open Hcrf_ir

let digest parts =
  Digest.string
    (String.concat ""
       (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts))

let int i = string_of_int i

let of_ddg ?(attr = fun _ -> "") (g : Ddg.t) =
  let ids = Ddg.nodes g in
  let n = List.length ids in
  let inv_uses = Hashtbl.create 16 in
  List.iter
    (fun (inv : Ddg.invariant) ->
      List.iter
        (fun c ->
          Hashtbl.replace inv_uses c
            (1 + Option.value ~default:0 (Hashtbl.find_opt inv_uses c)))
        inv.Ddg.inv_consumers)
    (Ddg.invariants g);
  let color = Hashtbl.create (max 16 n) in
  List.iter
    (fun id ->
      Hashtbl.replace color id
        (digest
           [ "node"; Op.kind_name (Ddg.kind g id); attr id;
             int (Option.value ~default:0 (Hashtbl.find_opt inv_uses id)) ]))
    ids;
  let c id = Hashtbl.find color id in
  let edge_sig tag other (e : Ddg.edge) =
    digest [ tag; Dep.name e.dep; int e.distance; c other ]
  in
  let refine () =
    let next =
      List.map
        (fun id ->
          let ins =
            List.sort String.compare
              (List.map (fun (e : Ddg.edge) -> edge_sig "in" e.src e)
                 (Ddg.preds g id))
          and outs =
            List.sort String.compare
              (List.map (fun (e : Ddg.edge) -> edge_sig "out" e.dst e)
                 (Ddg.succs g id))
          in
          (id, digest (("refine" :: c id :: ins) @ ("|" :: outs))))
        ids
    in
    List.iter (fun (id, col) -> Hashtbl.replace color id col) next
  in
  let distinct () =
    List.sort_uniq String.compare (List.map c ids) |> List.length
  in
  (* refinement only ever splits color classes; stop when the partition
     is stable (at most n rounds) *)
  let rec loop rounds prev =
    if rounds >= n then ()
    else begin
      refine ();
      let d = distinct () in
      if d > prev then loop (rounds + 1) d
    end
  in
  loop 0 (distinct ());
  let node_colors = List.sort String.compare (List.map c ids) in
  let edge_sigs =
    List.sort String.compare
      (List.map
         (fun (e : Ddg.edge) ->
           digest [ "edge"; c e.src; c e.dst; Dep.name e.dep; int e.distance ])
         (Ddg.edges g))
  in
  let inv_sigs =
    List.sort String.compare
      (List.map
         (fun (inv : Ddg.invariant) ->
           digest
             ("inv"
             :: List.sort String.compare (List.map c inv.Ddg.inv_consumers)))
         (Ddg.invariants g))
  in
  digest
    (("graph" :: int n :: node_colors) @ ("|" :: edge_sigs) @ ("|" :: inv_sigs))

let of_loop (l : Loop.t) =
  let attr id =
    match Loop.stream_for l id with
    | None -> ""
    | Some s -> Fmt.str "stream:%d:%d" s.Loop.base s.Loop.stride
  in
  digest
    [ "loop"; of_ddg ~attr l.Loop.ddg; int l.Loop.trip_count;
      int l.Loop.entries ]
