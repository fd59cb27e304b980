(** Lower bounds on the initiation interval.

    [ResMII] assumes perfectly balanced use of the replicated resources
    (FUs and, when clustered, memory ports), which is the standard bound;
    [RecMII] is the classic maximum over dependence cycles of
    ceil(sum latency / sum distance), computed per SCC with a binary
    search on II and a positive-cycle (Floyd-Warshall) test on edge
    weights latency - II * distance. *)

open Hcrf_ir
open Hcrf_machine

type bounds = {
  fu : int;    (** bound from FU slots *)
  mem : int;   (** bound from memory ports *)
  comm : int;  (** bound from inter-bank ports/buses *)
  rec_ : int;  (** bound from recurrences *)
}

let mii b = max (max b.fu b.mem) (max b.comm b.rec_)

let cdiv a b = if b <= 0 then 0 else (a + b - 1) / b

let cdiv_cap a (c : Cap.t) =
  match c with Cap.Inf -> 0 | Cap.Finite n -> cdiv a n

(** Resource-constrained bound. *)
let res_mii (config : Config.t) (g : Ddg.t) =
  let x = Config.clusters config in
  let fu_usage = ref 0
  and mem_ops = ref 0
  and loadrs = ref 0
  and storers = ref 0
  and moves = ref 0 in
  Ddg.iter_nodes g (fun n ->
      match n.kind with
      | Fadd | Fmul | Fdiv | Fsqrt ->
        let dur =
          if Latencies.pipelined n.kind then 1
          else Config.op_latency config n.kind
        in
        fu_usage := !fu_usage + dur
      | Load | Store | Spill_load | Spill_store -> incr mem_ops
      | Load_r -> incr loadrs
      | Store_r -> incr storers
      | Move -> incr moves);
  let fu = cdiv !fu_usage config.n_fus in
  let mem = cdiv !mem_ops config.n_mem_ports in
  let comm =
    let times_x = function Cap.Inf -> Cap.Inf | Cap.Finite n -> Cap.Finite (x * n) in
    let add a b =
      match (a, b) with
      | Cap.Inf, _ | _, Cap.Inf -> Cap.Inf
      | Cap.Finite m, Cap.Finite n -> Cap.Finite (m + n)
    in
    (* with a third level, LoadR/StoreR may also execute at Global on
       the Lp3/Sp3 ports: pooling them keeps this a true lower bound *)
    let l3_lp, l3_sp =
      match Rf.level3_of config.rf with
      | Some l -> (l.Rf.l3_lp, l.Rf.l3_sp)
      | None -> (Cap.Finite 0, Cap.Finite 0)
    in
    let lp = add (times_x (Rf.lp config.rf)) l3_lp
    and sp = add (times_x (Rf.sp config.rf)) l3_sp in
    let via_lp = cdiv_cap (!loadrs + !moves) lp in
    let via_sp = cdiv_cap (!storers + !moves) sp in
    let via_bus =
      match config.rf with
      | Rf.Clustered { buses; _ } -> cdiv_cap !moves buses
      | Rf.Monolithic _ | Rf.Hierarchical _ -> 0
    in
    max via_lp (max via_sp via_bus)
  in
  (fu, mem, comm)

(* The edges inside one SCC, by position in [nodes]: (source, target,
   latency, distance), read from the graph once for every probe of the
   RecMII search. *)
type scc_edges = { n : int; edges : (int * int * int * int) array }

let scc_edges (lat : Latency.t) (g : Ddg.t) nodes =
  let n = List.length nodes in
  let idx = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.replace idx v i) nodes;
  let edges =
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
  in
  { n; edges = Array.of_list edges }

(* Positive-cycle test: is there a cycle with total (latency - ii *
   distance) > 0 among the SCC's nodes?  Floyd-Warshall with max-plus
   weights over a flat n×n matrix. *)
let has_positive_cycle (c : scc_edges) ~ii =
  let n = c.n in
  if n = 0 then false
  else begin
    let neg_inf = min_int / 4 in
    let d = Array.make (n * n) neg_inf in
    Array.iter
      (fun (i, j, l, dist) ->
        let w = l - (ii * dist) in
        if w > d.((i * n) + j) then d.((i * n) + j) <- w)
      c.edges;
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
      (* also catch self loops found during init *)
      let pos = ref false in
      for i = 0 to n - 1 do
        if d.((i * n) + i) > 0 then pos := true
      done;
      !pos
    with Found -> true
  end

(** RecMII of one SCC: smallest ii with no positive cycle. *)
let scc_rec_mii (lat : Latency.t) (g : Ddg.t) nodes =
  (* Upper bound: total latency around any simple cycle is at most the sum
     of all node latencies in the SCC (distances are >= 1 on cycles). *)
  let upper =
    List.fold_left
      (fun acc v ->
        acc + max 1 (Latency.of_def lat ~id:v ~kind:(Ddg.kind g v)))
      1 nodes
  in
  let c = scc_edges lat g nodes in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if has_positive_cycle c ~ii:mid then search (mid + 1) hi
      else search lo mid
  in
  search 1 upper

type recurrence = { rmii : int; scc : int list }

let recurrences (lat : Latency.t) (g : Ddg.t) =
  List.map
    (fun scc -> { rmii = scc_rec_mii lat g scc; scc })
    (Scc.recurrences g)

let rec_of_recurrences recs =
  List.fold_left (fun acc r -> max acc r.rmii) 1 recs

(** Recurrence-constrained bound (1 when the graph is acyclic: an empty
    recurrence constraint, and II >= 1 always). *)
let rec_mii (lat : Latency.t) (g : Ddg.t) =
  rec_of_recurrences (recurrences lat g)

let bounds ?(lat : Latency.t option) ?recs (config : Config.t) (g : Ddg.t) =
  let lat = match lat with Some l -> l | None -> Latency.make config in
  let fu, mem, comm = res_mii config g in
  let recs = match recs with Some r -> r | None -> recurrences lat g in
  { fu; mem; comm; rec_ = rec_of_recurrences recs }

let compute ?(trace = Hcrf_obs.Trace.off) ?lat ?recs config g =
  Hcrf_obs.Trace.span trace Hcrf_obs.Event.Mii (fun () ->
      max 1 (mii (bounds ?lat ?recs config g)))
