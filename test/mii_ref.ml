(** Reference RecMII pass (per-SCC hash table).

    The recurrences of the hash-table Tarjan walk (test/scc_ref.ml),
    each with the RecMII {!Hcrf_sched.Mii} computed before it read the
    graph's dense view: a [Hashtbl] from id to local index per SCC, the
    SCC's edges listed from the adjacency lists, and the same binary
    search over a Floyd-Warshall positive-cycle test.  [Mii.recurrences]
    must return the same recurrences, in the same order, with the same
    RecMII; test_sched.ml checks it on the suite, the kernels and the
    engine's final graphs. *)

open Hcrf_ir
open Hcrf_sched

let scc_edges (lat : Latency.t) (g : Ddg.t) nodes =
  let idx = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace idx v i) nodes;
  List.concat_map
    (fun v ->
      let i = Hashtbl.find idx v in
      List.filter_map
        (fun (e : Ddg.edge) ->
          Option.map
            (fun j -> (i, j, Latency.of_edge lat g e, e.distance))
            (Hashtbl.find_opt idx e.dst))
        (Ddg.succs g v))
    nodes

(* Is there a cycle of positive total (latency - ii * distance)?
   Max-plus Floyd-Warshall over a flat n×n matrix, stopping at the
   first positive diagonal cell. *)
let has_positive_cycle n edges ~ii =
  let neg_inf = min_int / 4 in
  let d = Array.make (n * n) neg_inf in
  List.iter
    (fun (i, j, l, dist) ->
      let w = l - (ii * dist) in
      if w > d.((i * n) + j) then d.((i * n) + j) <- w)
    edges;
  let exception Found in
  try
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        let dik = d.((i * n) + k) in
        if dik > neg_inf then
          for j = 0 to n - 1 do
            let dkj = d.((k * n) + j) in
            let ij = (i * n) + j in
            if dkj > neg_inf && dik + dkj > d.(ij) then begin
              d.(ij) <- dik + dkj;
              if i = j && d.(ij) > 0 then raise Found
            end
          done
      done
    done;
    List.exists (fun i -> d.((i * n) + i) > 0) (List.init n Fun.id)
  with Found -> true

let scc_rec_mii lat g nodes =
  let upper =
    List.fold_left
      (fun acc v ->
        acc + max 1 (Latency.of_def lat ~id:v ~kind:(Ddg.kind g v)))
      1 nodes
  in
  let n = List.length nodes and edges = scc_edges lat g nodes in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if has_positive_cycle n edges ~ii:mid then search (mid + 1) hi
      else search lo mid
  in
  search 1 upper

let is_recurrence g = function
  | [] -> false
  | [ v ] -> List.exists (fun (e : Ddg.edge) -> e.dst = v) (Ddg.succs g v)
  | _ :: _ :: _ -> true

(** (RecMII, SCC) per recurrence, in {!Scc_ref.sccs} order. *)
let recurrences lat g =
  List.filter_map
    (fun scc ->
      if is_recurrence g scc then Some (scc_rec_mii lat g scc, scc) else None)
    (Scc_ref.sccs g)
