(** Location selection: MIRS_C's Select_Cluster [37] for operations
    with a choice of cluster, and the placement rules of the inserted
    communication and spill operations.  A part of {!Engine}, over an
    {!Attempt}. *)

open Hcrf_ir
open Hcrf_machine
module Work = Schedule.Work

(* The candidate locations of one operation kind, in Select_Cluster's
   order, with the bank the kind reads its operands from and the bank
   it defines its value in at each of them. *)
type cands = {
  locs : Topology.loc list;
  rbs : Topology.bank array;         (* candidate -> read bank *)
  dbs : Topology.bank option array;  (* candidate -> definition bank *)
  fits : bool;
      (* some candidate takes the kind in an empty reservation table;
         true for communication, which the engine splices out instead *)
}

(* Built once per configuration and kept per [Engine.schedule] call,
   not in a global memo: calls run on several domains. *)
type t = {
  exec : cands array;                    (* kind tag -> candidates *)
  cc_counts : (int, int) Hashtbl.t;      (* [consumers_cluster] scratch *)
  sc_comm : int array;   (* candidate -> fresh copies ([score_routes]) *)
  sc_mark : int array;
      (* cluster -> the last operand edge ([sc_edge]) whose shared node
         a scheduled down copy there already holds *)
  mutable sc_edge : int;
}

let create config =
  let fits = Mrt.fits_empty config in
  let none = { locs = []; rbs = [||]; dbs = [||]; fits = true } in
  let exec = Array.make (List.length Op.all_kinds) none in
  List.iter
    (fun k ->
      let locs = Topology.exec_locs config k in
      let at f = Array.of_list (List.map (f config k) locs) in
      exec.(Schedule.kind_tag k) <-
        { locs; rbs = at Topology.read_bank; dbs = at Topology.def_bank;
          fits =
            Op.is_communication k
            || List.exists
                 (fun loc -> fits (Topology.uses config k loc ~src:None))
                 locs })
    Op.all_kinds;
  { exec;
    cc_counts = Hashtbl.create 4;
    sc_comm = Array.make (Config.clusters config) 0;
    sc_mark = Array.make (Config.clusters config) 0;
    sc_edge = 0 }

(* Whether some operation of [g] fits at none of its locations even in
   an empty reservation table (no read or write port, or one read port
   under a two-operand op): such a loop fits at no II, and the engine
   answers it before trying one.  Communication is not tested: the
   engine splices out what it cannot place.  The runner asks it again
   to word its "fits at no II" warning. *)
let unplaceable sel g =
  Ddg.count_kind g (fun k -> not sel.exec.(Schedule.kind_tag k).fits) > 0

let cluster_loc (s : Attempt.t) i = s.sched.Schedule.locs.(i + 1)

let bank_tag = function
  | Topology.Local _ -> 0
  | Topology.Shared -> 1

(* [v], whose routes are scored, is not scheduled: no mark is its own. *)
let mark_down_copies sel (s : Attempt.t) sn ~kind =
  List.iter
    (fun (e : Ddg.edge) ->
      if
        Op.equal_kind (Ddg.kind s.g e.dst) kind
        && Schedule.is_scheduled s.sched e.dst
      then
        match Schedule.loc_of s.sched e.dst with
        | Topology.Cluster j -> sel.sc_mark.(j) <- sel.sc_edge
        | Topology.Global -> ())
    (Ddg.consumers s.g sn)

(* [Route.route_of]'s shared node for the value [p] defines in [db] (its
   root, else its up copy; -1 for none) does not depend on the reading
   bank.  A clustered file has no shared bank: [p] is its own root, and
   its down copies are Moves. *)
let score_operand sel (s : Attempt.t) v (c : cands) ~p ~(db : Topology.bank) =
  let hier = Rf.is_hierarchical s.config.rf in
  let root = if hier then Route.shared_root s p ~db else p in
  let sn = if root >= 0 then root else Route.shared_copy s p ~db ~avoid:v in
  sel.sc_edge <- sel.sc_edge + 1;
  if sn >= 0 then
    mark_down_copies sel s sn ~kind:(if hier then Op.Load_r else Op.Move);
  for k = 0 to Array.length c.rbs - 1 do
    let rb = c.rbs.(k) in
    if not (Topology.equal_bank db rb) then
      let fresh =
        match (rb, s.config.rf) with
        | Topology.Local j, (Rf.Clustered _ | Rf.Hierarchical _) ->
          Bool.to_int (sn < 0) + Bool.to_int (sel.sc_mark.(j) <> sel.sc_edge)
        | _ -> Route.route_fresh s ~p ~db ~rb ~avoid:v
      in
      sel.sc_comm.(k) <- sel.sc_comm.(k) + fresh
  done

let score_consumer sel s v (c : cands) ~rb ~avoid =
  let rec go k tag fresh =
    if k < Array.length c.dbs then
      match c.dbs.(k) with
      | Some db when not (Topology.equal_bank db rb) ->
        let fresh =
          if bank_tag db = tag then fresh
          else Route.route_fresh s ~p:v ~db ~rb ~avoid
        in
        sel.sc_comm.(k) <- sel.sc_comm.(k) + fresh;
        go (k + 1) (bank_tag db) fresh
      | Some _ | None -> go (k + 1) tag fresh
  in
  go 0 (-1) 0

(* The fresh communication ops [v] (not a Move) needs at each candidate
   of [c], into [sel.sc_comm]: cell [k] equals the sum of
   [Route.route_fresh] over the routes [v] needs at candidate [k], but
   one walk of [v]'s edges serves every candidate.
   - An operand edge's shared node depends on its producer only.  One
     walk of that node's consumers marks the clusters holding a
     scheduled down copy of it to reuse.
   - A consumer edge's count depends on [v]'s definition bank only
     through [equal_bank db rb] and [db]'s constructor: one
     [route_fresh] serves every candidate defining into a bank of that
     constructor. *)
let score_routes sel (s : Attempt.t) v (c : cands) =
  Array.fill sel.sc_comm 0 (Array.length c.rbs) 0;
  Route.fold_operand_edges s v
    (fun () (e : Ddg.edge) ~db -> score_operand sel s v c ~p:e.src ~db)
    () (Ddg.operands s.g v);
  if Op.defines_value (Ddg.kind s.g v) then
    Route.fold_consumer_edges s v
      (fun () (e : Ddg.edge) ~rb -> score_consumer sel s v c ~rb ~avoid:e.dst)
      () (Ddg.succs s.g v)

(* Cost of placing [v] at [loc] without committing: [comm] fresh
   communication ops ({!score_routes}), slot availability, FU occupancy
   and bank fill.  Every window of II cycles asks the same slot
   question, so [v]'s earliest cycle does not enter. *)
let placement_cost (s : Attempt.t) v ~comm ~loc =
  let slot_ok = Work.fits_any s.work (Work.prepare s.work s.g v ~loc) in
  let cluster =
    match loc with Topology.Cluster i -> i | Topology.Global -> 0
  in
  let fu_fill =
    Work.total_occupancy s.work
      (if Op.is_memory (Ddg.kind s.g v) then Topology.Mem cluster
       else Topology.Fu cluster)
  in
  let bank_fill = Schedule.bank_def_count s.sched (Topology.Local cluster) in
  (* graded register-availability term: a nearly-full bank is almost as
     bad as a communication op, since placing here will trigger spill
     code (the "availability of registers" part of Select_Cluster) *)
  let pressure_penalty =
    match Topology.bank_capacity s.config (Topology.Local cluster) with
    | Cap.Inf -> 0
    | Cap.Finite cap when cap > 0 -> bank_fill * 48 / cap
    | Cap.Finite _ -> 0
  in
  (* access-port pressure: on a bank with constrained read/write ports,
     already-reserved Rd/Wr slots make the cluster less attractive —
     unconstrained banks (every legacy configuration) contribute 0 *)
  let port_fill =
    match Topology.bank_access s.config (Topology.Local cluster) with
    | None -> 0
    | Some _ ->
      let b = Topology.bank_code s.config (Topology.Local cluster) in
      Work.total_occupancy s.work (Topology.Rd b)
      + Work.total_occupancy s.work (Topology.Wr b)
  in
  (* A cluster without a free slot in the window is almost always a bad
     idea (it forces ejections); communication comes next; resource and
     register balance break ties. *)
  ((if slot_ok then 0 else 1000) + (100 * comm) + pressure_penalty
  + fu_fill + bank_fill + port_fill)

(* The cluster a scheduled node [v] executes in, or -1 (unscheduled,
   or at [Global]). *)
let cluster_at (s : Attempt.t) v =
  if Schedule.is_scheduled s.sched v then
    Topology.loc_code (Schedule.loc_of s.sched v)
  else -1

(* Majority cluster among the scheduled consumers of [v], or -1.  Ties
   go to the first maximum in the fold order of [sel.cc_counts]; the
   table is reset to its initial size on every call, so it folds as the
   fresh table each call used to build did. *)
let consumers_cluster sel (s : Attempt.t) v =
  let counts = sel.cc_counts in
  Hashtbl.reset counts;
  List.iter
    (fun (e : Ddg.edge) ->
      let c = cluster_at s e.dst in
      if c >= 0 then
        Hashtbl.replace counts c
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    (Ddg.consumers s.g v);
  Hashtbl.fold
    (fun c n (bc, bn) -> if bc >= 0 && bn >= n then (bc, bn) else (c, n))
    counts (-1, 0)
  |> fst

(* The cluster of the first operand producer scheduled in one, or -1. *)
let producer_cluster (s : Attempt.t) v =
  let rec go = function
    | [] -> -1
    | (e : Ddg.edge) :: tl ->
      let c = cluster_at s e.src in
      if c >= 0 then c else go tl
  in
  go (Ddg.operands s.g v)

(* Cluster [c], or a splice when there is none (-1). *)
let loc_or_splice s c = if c >= 0 then `Loc (cluster_loc s c) else `Splice

let decide_loc sel (s : Attempt.t) v =
  let kind = Ddg.kind s.g v in
  let c = sel.exec.(Schedule.kind_tag kind) in
  match c.locs with
  | [] -> `Splice
  | [ l ] -> `Loc l
  | locs -> (
    match kind with
    | Op.Move | Op.Load_r | Op.Store_r -> (
      let operands = Ddg.operands s.g v in
      let producer_ready =
        operands = []
        || List.exists
             (fun (e : Ddg.edge) -> Schedule.is_scheduled s.sched e.src)
             operands
      in
      if (not producer_ready) || not (Attempt.has_scheduled_consumer s v)
      then `Splice
      else
        loc_or_splice s
          (if Op.equal_kind kind Op.Store_r then producer_cluster s v
           else consumers_cluster sel s v))
    | Op.Spill_load | Op.Spill_store ->
      let c =
        if Op.equal_kind kind Op.Spill_load then consumers_cluster sel s v
        else producer_cluster s v
      in
      `Loc (if c >= 0 then cluster_loc s c else List.hd locs)
    | Op.Fadd | Op.Fmul | Op.Fdiv | Op.Fsqrt | Op.Load | Op.Store ->
      (* Select_Cluster heuristic [37]: fewest new communications, then
         a free slot, then balanced FU/register use; the first of equal
         costs wins. *)
      score_routes sel s v c;
      let rec best k bl bc = function
        | [] -> bl
        | loc :: tl ->
          let cost = placement_cost s v ~comm:sel.sc_comm.(k) ~loc in
          if cost < bc then best (k + 1) loc cost tl else best (k + 1) bl bc tl
      in
      `Loc (best 0 (List.hd locs) max_int locs))
