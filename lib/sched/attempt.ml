(** One attempt at a fixed II: the state every decision of the engine
    reads, and the placement with force-and-eject that they share.  A
    part of {!Engine}, whose interface the rest of the tree uses. *)

open Hcrf_ir
open Hcrf_machine
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event
module Work = Schedule.Work

type mstats = {
  mutable m_ejections : int;
  mutable m_forcings : int;
  mutable m_value_spills : int;
  mutable m_invariant_spills : int;
  mutable m_comm_inserted : int;
  mutable m_attempts : int;
}

(* The side tables indexed by node id ([prio], [aux], [last_force]) are
   arrays of one common length, grown together by [reserve] when an
   inserted node's id runs past them.  [finite_banks] is built once per
   attempt: attempts run on several domains, so it stays out of global
   memos. *)
type t = {
  g : Ddg.t;
  config : Config.t;
  lat : Latency.t;
  work : Work.t;        (* reservation table, compiled uses, arena *)
  sched : Schedule.t;   (* [work]'s columns *)
  press : Pressure.t;                    (* incremental MaxLives tracker *)
  pq : Pqueue.t;
  mutable prio : float array;            (* id -> priority, [no_prio] unset *)
  mutable aux : int list array;          (* anchor -> inserted comm nodes *)
  mutable last_force : int array;        (* id -> forced cycle, [min_int] none *)
  finite_banks : (Topology.bank * int) array;
      (* banks with a finite capacity, in bank-code order *)
  mutable budget : int;
  ratio : int;
  backtracking : bool;
  n0 : int;  (* nodes in the original graph, for the growth caps *)
  st : mstats;
  trace : Tr.t;
}

exception Attempt_failed

let no_prio = 1.0e9

(* Grow the node-indexed side tables to cover id [v]. *)
let reserve s v =
  let n = Array.length s.prio in
  if v >= n then begin
    let n' = max (2 * n) (v + 1) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    s.prio <- grow s.prio no_prio;
    s.aux <- grow s.aux [];
    s.last_force <- grow s.last_force min_int
  end

let prio_of s v = if v < Array.length s.prio then s.prio.(v) else no_prio

let set_prio s v p =
  reserve s v;
  s.prio.(v) <- p

let push s v = Pqueue.push s.pq ~priority:(prio_of s v) v

let create config ~lat ~budget_ratio ~backtracking g0 ~order ~ii ~trace
    ~arena =
  let g = Ddg.copy g0 in
  let work = Work.create ~arena ~lat config ~ii in
  let sched = Work.columns work in
  let ids = 1 + List.fold_left max 0 order in
  let s =
    {
      g;
      config;
      lat;
      work;
      sched;
      press = Pressure.create ~arena sched g;
      pq = Pqueue.create ();
      prio = Array.make ids no_prio;
      aux = Array.make ids [];
      last_force = Array.make ids min_int;
      finite_banks =
        Topology.all_banks config
        |> List.filter_map (fun b ->
               match Topology.bank_capacity config b with
               | Cap.Finite cap -> Some (b, cap)
               | Cap.Inf -> None)
        |> Array.of_list;
      budget = budget_ratio * max 1 (Ddg.num_nodes g);
      ratio = budget_ratio;
      backtracking;
      n0 = max 1 (Ddg.num_nodes g);
      st =
        {
          m_ejections = 0;
          m_forcings = 0;
          m_value_spills = 0;
          m_invariant_spills = 0;
          m_comm_inserted = 0;
          m_attempts = 0;
        };
      trace;
    }
  in
  (* graph surgery invalidates affected lifetimes *)
  Ddg.set_watcher g (Some (Pressure.mark s.press));
  List.iteri (fun i v -> set_prio s v (float_of_int i)) order;
  List.iter (push s) order;
  s

let last_force s v =
  if v < Array.length s.last_force then s.last_force.(v) else min_int

let requeue s v = if Ddg.mem s.g v && not (Pqueue.mem s.pq v) then push s v

let add_aux s ~anchor n =
  reserve s anchor;
  s.aux.(anchor) <- n :: s.aux.(anchor)

let rec mark_srcs press = function
  | [] -> ()
  | (e : Ddg.edge) :: tl ->
    Pressure.mark press e.src;
    mark_srcs press tl

(* Scheduling/unscheduling [v] changes its own lifetime and extends or
   shrinks its operand producers' (a consumer appeared/disappeared). *)
let mark_lifetimes s v =
  Pressure.mark s.press v;
  mark_srcs s.press (Ddg.operands s.g v)

let place_node s v cu ~cycle ~loc =
  Work.place s.work s.g v cu ~cycle ~loc;
  mark_lifetimes s v

let unplace_node s v =
  if Schedule.is_scheduled s.sched v then begin
    mark_lifetimes s v;
    Work.unplace s.work v
  end

let has_scheduled_consumer s v =
  List.exists
    (fun (e : Ddg.edge) -> Schedule.is_scheduled s.sched e.dst)
    (Ddg.consumers s.g v)

(* A Move whose producer was ejected has no source bank, hence no
   reservation vector. *)
let move_unsourced s v =
  Op.equal_kind (Ddg.kind s.g v) Op.Move
  && Schedule.move_src_bank s.sched s.g v = None

(* ------------------------------------------------------------------ *)
(* Graph surgery                                                       *)

(* Remove a communication node, reconnecting its producer to its
   consumers (distances compose).  Invariant consumer lists are updated:
   consumers of an invariant's LoadR become direct consumers again. *)
let splice_out s v =
  let operands = Ddg.operands s.g v in
  let consumers = Ddg.consumers s.g v in
  (match operands with
  | [] -> ()
  | pe :: _ ->
    List.iter
      (fun (ce : Ddg.edge) ->
        Ddg.add_edge s.g ~distance:(pe.distance + ce.distance)
          ~dep:Dep.True pe.src ce.dst)
      consumers);
  List.iter
    (fun (inv : Ddg.invariant) ->
      if List.mem v inv.inv_consumers then
        inv.inv_consumers <-
          List.filter (fun c -> c <> v) inv.inv_consumers
          @ List.map (fun (ce : Ddg.edge) -> ce.dst) consumers)
    (Ddg.invariants s.g);
  unplace_node s v;
  Pqueue.remove s.pq v;
  Ddg.remove_node s.g v

(* Discard an auxiliary communication node if nothing scheduled reads
   it any more. *)
let maybe_discard s v =
  if
    Ddg.mem s.g v
    && Op.is_communication (Ddg.kind s.g v)
    && not (has_scheduled_consumer s v)
  then splice_out s v

(* Eject a node: deschedule it, requeue it with its original priority,
   drop the communication helpers inserted for it, and recursively eject
   the location-bound communication consumers of its value (a Move or
   StoreR reads the bank its producer was in). *)
let rec eject s v =
  if Schedule.is_scheduled s.sched v then begin
    unplace_node s v;
    s.st.m_ejections <- s.st.m_ejections + 1;
    if Tr.enabled s.trace then Tr.emit s.trace (Ev.Eject { node = v });
    let loc_bound =
      List.filter_map
        (fun (e : Ddg.edge) ->
          match Ddg.kind s.g e.dst with
          | Op.Move | Op.Store_r
            when e.dst <> v && Schedule.is_scheduled s.sched e.dst ->
            Some e.dst
          | _ -> None)
        (Ddg.consumers s.g v)
    in
    (match if v < Array.length s.aux then s.aux.(v) else [] with
    | [] -> ()
    | l ->
      s.aux.(v) <- [];
      List.iter (maybe_discard s) l);
    requeue s v;
    List.iter (eject s) loc_bound
  end

(* ------------------------------------------------------------------ *)
(* Core placement with force-and-eject                                 *)

let emit_place s v ~cycle ~loc =
  if Tr.enabled s.trace then
    Tr.emit s.trace
      (Ev.Place { node = v; cycle; cluster = Topology.loc_code loc })

(* The first of the [n] cycles [from], [from + step], ... at which the
   reservation vector [cu] fits, or -1; the engine never issues below
   cycle 0. *)
let rec scan s cu ~from ~step n =
  if n <= 0 then -1
  else if from >= 0 && Work.fits s.work cu ~cycle:from then from
  else scan s cu ~from:(from + step) ~step (n - 1)

let rec has_scheduled_pred s v = function
  | [] -> false
  | (e : Ddg.edge) :: tl ->
    (e.src <> v && Schedule.is_scheduled s.sched e.src)
    || has_scheduled_pred s v tl

let schedule_node s v ~loc =
  if move_unsourced s v then
    (* the producer was ejected while this Move waited: its source bank
       (and port reservation) is unknown — retry once the producer is
       back *)
    requeue s v
  else begin
  let ii = Schedule.ii s.sched in
  let estart = Schedule.estart s.sched s.g v in
  let lstart = Schedule.lstart s.sched s.g v in
  let has_spreds = has_scheduled_pred s v (Ddg.preds s.g v) in
  (* A down-copy splits its value's lifetime between the upstream bank
     (shared bank / memory) and the downstream FU-facing bank: issuing
     late moves the lifetime upstream.  Spill loads always issue late
     (memory capacity is free); a LoadR issues late only when the
     destination bank is fuller than the shared bank. *)
  let prefer_late =
    match Ddg.kind s.g v with
    | Op.Spill_load -> true
    | Op.Load_r ->
      let fill bank =
        match Topology.bank_capacity s.config bank with
        | Cap.Inf -> 0.
        | Cap.Finite cap when cap > 0 ->
          float_of_int (Schedule.bank_def_count s.sched bank)
          /. float_of_int cap
        | Cap.Finite _ -> 1.
      in
      fill (Topology.facing_bank loc) >= fill Topology.Shared
    | _ -> false
  in
  (* candidate scan over the precompiled reservation vector: no list of
     cycles, no per-cycle [uses] rebuild *)
  let cu = Work.prepare s.work s.g v ~loc in
  let found =
    match (has_spreds, lstart) with
    | false, Some l when l >= 0 ->
      (* only successors scheduled: scan downwards from lstart *)
      scan s cu ~from:l ~step:(-1) (min ii (l + 1))
    | _, Some l ->
      let hi = min l (estart + ii - 1) in
      if hi < estart then -1
      else if prefer_late then scan s cu ~from:hi ~step:(-1) (hi - estart + 1)
      else scan s cu ~from:estart ~step:1 (hi - estart + 1)
    | _, None -> scan s cu ~from:estart ~step:1 ii
  in
  match found with
  | cycle when cycle >= 0 ->
    place_node s v cu ~cycle ~loc;
    emit_place s v ~cycle ~loc;
    if v < Array.length s.last_force then s.last_force.(v) <- min_int
  | _ ->
    if not s.backtracking then raise Attempt_failed;
    (* force and eject *)
    s.st.m_forcings <- s.st.m_forcings + 1;
    let base =
      match (has_spreds, lstart) with
      | false, Some l when l >= 0 -> l
      | _ -> max 0 estart
    in
    let cycle =
      let p = last_force s v in
      if p >= base then p + 1 else base
    in
    reserve s v;
    s.last_force.(v) <- cycle;
    let guard = ref 64 in
    (* ejecting a conflict can invalidate [v] itself: a pending comm op
       is spliced out when its last scheduled consumer goes, and a
       pending Move loses its source bank (hence its reservation vector)
       when its producer is ejected — re-check before every probe *)
    let probe_ok () = Ddg.mem s.g v && not (move_unsourced s v) in
    let rec clear () =
      decr guard;
      if probe_ok () then
        match Work.conflicts s.work s.g v ~cycle ~loc with
        | [] -> ()
        | conflicts when !guard > 0 ->
          List.iter (eject s) conflicts;
          clear ()
        | _ -> ()
    in
    clear ();
    if not (Ddg.mem s.g v) then ()
    else if not (probe_ok ()) then requeue s v
    else
      (* re-prepare: the ejections above may have unscheduled a Move's
         producer, changing the reservation vector *)
      let cu = Work.prepare s.work s.g v ~loc in
      if Work.fits s.work cu ~cycle then begin
        place_node s v cu ~cycle ~loc;
        emit_place s v ~cycle ~loc;
        List.iter (eject s)
          (Schedule.dependence_violations s.sched s.g v ~cycle)
      end
      else
        (* unbreakable conflict (should not happen); retry later *)
        requeue s v
  end
