(** The iterative modulo-scheduling engine (MIRS family).

    One engine drives every register-file organization: the
    {!Topology} of the configuration decides where operations may
    execute, which bank holds each value, and which communication
    operations connect banks.  The engine is the algorithm of Figure 5
    of the paper:

    - nodes are scheduled one at a time in HRMS priority order;
    - cluster selection minimizes new communication, then slot
      availability, then balances FU and register-bank use;
    - the communication operations a placement needs (Move for
      clustered RFs, StoreR/LoadR for hierarchical ones) are inserted
      into the graph — reusing an existing StoreR of the same value
      when possible — and scheduled before the node itself;
    - when no slot fits, the node is forced and the conflicting or
      dependence-violated nodes are ejected back into the priority
      list, together with the now-useless communication operations
      that were inserted for them;
    - after every placement the per-bank register requirement
      (MaxLives) is compared against the bank capacities; overflowing
      banks get spill code — StoreR/LoadR between a distributed bank
      and the shared bank, Spill_store/Spill_load between a bank and
      memory — and loop invariants can be demoted from a cluster to
      the shared bank (or memory);
    - a Budget of [budget_ratio * |V|] attempts (replenished by
      [budget_ratio] for every inserted node, up to a lifetime cap per
      attempt so replenishment cannot sustain a spill cycle forever)
      bounds the iterative process; when exhausted the attempt is
      discarded and the whole process restarts with II + 1. *)

open Hcrf_ir
open Hcrf_machine
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event
module Work = Schedule.Work

type options = {
  budget_ratio : int;
  max_ii : int option;  (** absolute cap on the II search (None: auto) *)
  load_override : int -> int option;
      (** per-load latency override for binding prefetching *)
  backtracking : bool;
      (** false: never force-and-eject; a placement failure discards the
          attempt and restarts with II+1, as in the non-iterative
          scheduler of [36] *)
  ordering : [ `Hrms | `Topological ];
      (** node ordering: HRMS-style (default) or plain topological *)
}

let default_options =
  { budget_ratio = 6; max_ii = None; load_override = (fun _ -> None);
    backtracking = true; ordering = `Hrms }

type stats = {
  ejections : int;
  forcings : int;
  value_spills : int;
  invariant_spills : int;
  comm_inserted : int;
  attempts : int;
  ii_restarts : int;
}

let zero_stats =
  { ejections = 0; forcings = 0; value_spills = 0; invariant_spills = 0;
    comm_inserted = 0; attempts = 0; ii_restarts = 0 }

let add_stats a b =
  { ejections = a.ejections + b.ejections;
    forcings = a.forcings + b.forcings;
    value_spills = a.value_spills + b.value_spills;
    invariant_spills = a.invariant_spills + b.invariant_spills;
    comm_inserted = a.comm_inserted + b.comm_inserted;
    attempts = a.attempts + b.attempts;
    ii_restarts = a.ii_restarts + b.ii_restarts }

type outcome = {
  ii : int;
  mii : int;
  bounds : Mii.bounds;  (** of the final graph, for bound classification *)
  sc : int;
  schedule : Schedule.t;
  graph : Ddg.t;        (** final graph with all inserted operations *)
  invariant_residents : int array;
  seconds : float;
  stats : stats;
}

type error = [ `No_schedule of int (* last II tried *) ]

(* ------------------------------------------------------------------ *)
(* Mutable per-attempt state                                           *)

type mstats = {
  mutable m_ejections : int;
  mutable m_forcings : int;
  mutable m_value_spills : int;
  mutable m_invariant_spills : int;
  mutable m_comm_inserted : int;
  mutable m_attempts : int;
}

(* The candidate locations of one operation kind, in Select_Cluster's
   order, with the bank the kind reads its operands from and the bank
   it defines its value in at each of them. *)
type cands = {
  locs : Topology.loc list;
  rbs : Topology.bank array;         (* candidate -> read bank *)
  dbs : Topology.bank option array;  (* candidate -> definition bank *)
}

(* The side tables indexed by node id ([prio], [aux], [last_force],
   [spilled]) are arrays of one common length, grown together by
   [reserve] when an inserted node's id runs past them.  The
   configuration-derived tables ([finite_banks], [exec]) and the
   scratch ([cc_counts], [sc_comm], [sc_mark]) are built once per
   attempt: attempts run on several domains, so they stay out of global
   memos. *)
type state = {
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
  mutable spilled : Bytes.t;             (* value defs already spilled *)
  inv_spilled : (int * int, unit) Hashtbl.t; (* (inv, bank code) *)
  finite_banks : (Topology.bank * int) array;
      (* banks with a finite capacity, in bank-code order *)
  exec : cands array;                    (* kind tag -> candidates *)
  cc_counts : (int, int) Hashtbl.t;      (* [consumers_cluster] scratch *)
  sc_comm : int array;   (* candidate -> fresh copies ([score_routes]) *)
  sc_mark : int array;
      (* cluster -> the last operand edge ([sc_edge]) whose shared node
         a scheduled down copy there already holds *)
  mutable sc_edge : int;
  mutable budget : int;
  mutable refills : int;
      (* cumulative budget granted back by spills; capped so a spill /
         eject / re-spill cycle over fresh node ids (which the
         [spilled] once-only marker cannot see) drains the budget
         instead of sustaining itself forever *)
  ratio : int;
  opts : options;
  n0 : int;  (** nodes in the original graph, for the growth cap *)
  st : mstats;
  trace : Tr.t;
}

(* Safety net: spilling must not grow the graph without bound (the paper
   controls this with the Budget; we additionally cap the graph size so
   a failing attempt is abandoned instead of thrashing). *)
let growth_cap s = Ddg.num_nodes s.g > (8 * s.n0) + 64

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
    s.last_force <- grow s.last_force min_int;
    let b = Bytes.make n' '\000' in
    Bytes.blit s.spilled 0 b 0 n;
    s.spilled <- b
  end

let prio_of s v = if v < Array.length s.prio then s.prio.(v) else no_prio

let set_prio s v p =
  reserve s v;
  s.prio.(v) <- p

let is_spilled s v =
  v < Bytes.length s.spilled && Bytes.get s.spilled v <> '\000'

let set_spilled s v =
  reserve s v;
  Bytes.set s.spilled v '\001'

let last_force s v = if v < Array.length s.last_force then s.last_force.(v) else min_int

let requeue s v =
  if Ddg.mem s.g v && not (Pqueue.mem s.pq v) then
    Pqueue.push s.pq ~priority:(prio_of s v) v

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

let kind_of s v = Ddg.kind s.g v

let is_comm_kind = function
  | Op.Move | Op.Load_r | Op.Store_r -> true
  | _ -> false

(* The bank was fixed when [v] was placed ({!Schedule.def_bank}). *)
let def_bank_of s v = Schedule.def_bank s.sched s.g v

let cluster_of_loc = function Topology.Cluster i -> i | Topology.Global -> 0

let cluster_loc s i = s.sched.Schedule.locs.(i + 1)

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
  if Ddg.mem s.g v && is_comm_kind (kind_of s v) then begin
    let has_live_consumer =
      List.exists
        (fun (e : Ddg.edge) -> Schedule.is_scheduled s.sched e.dst)
        (Ddg.consumers s.g v)
    in
    if not has_live_consumer then splice_out s v
  end

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
          match kind_of s e.dst with
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
    let cluster =
      match loc with Topology.Cluster i -> i | Topology.Global -> -1
    in
    Tr.emit s.trace (Ev.Place { node = v; cycle; cluster })

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
  if
    Op.equal_kind (kind_of s v) Op.Move
    && Schedule.move_src_bank s.sched s.g v = None
  then
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
    match kind_of s v with
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
      let dst =
        match loc with
        | Topology.Cluster i -> Topology.Local i
        | Topology.Global -> Topology.Shared
      in
      fill dst >= fill Topology.Shared
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
    if not s.opts.backtracking then raise Attempt_failed;
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
    let probe_ok () =
      Ddg.mem s.g v
      && not
           (Op.equal_kind (kind_of s v) Op.Move
           && Schedule.move_src_bank s.sched s.g v = None)
    in
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

(* ------------------------------------------------------------------ *)
(* Communication routing                                               *)

type step = Reuse of int | Fresh of Op.kind * Topology.loc

type plan = { new_src : int; steps : step list }

(* [avoid] is the consumer the route is being planned for: reusing it
   (or a copy of its own output) as a step would wire the consumer's
   value back into itself and silently disconnect the producer.  The
   copy's id, or -1 when there is none. *)
let rec find_copy s ~kind ~loc ~avoid = function
  | [] -> -1
  | (e : Ddg.edge) :: tl ->
    if
      e.dst <> avoid
      && Op.equal_kind (kind_of s e.dst) kind
      && Schedule.is_scheduled s.sched e.dst
      && (match loc with
         | None -> true
         | Some loc -> Topology.equal_loc (Schedule.loc_of s.sched e.dst) loc)
    then e.dst
    else find_copy s ~kind ~loc ~avoid tl

let reusable_copy_at s src ~kind ~loc ~avoid =
  find_copy s ~kind ~loc:(Some loc) ~avoid (Ddg.consumers s.g src)

(* A node already holding [p]'s value in the shared bank, given [db],
   the bank of [p]'s (possibly not yet placed) definition; -1 when
   none.  A LoadR's producer, or a StoreR@Global's, holds the value it
   copies. *)
let shared_root s p ~(db : Topology.bank) =
  let producer_if kind =
    if Op.equal_kind (kind_of s p) kind then
      match Ddg.operands s.g p with
      | (e : Ddg.edge) :: _ when def_bank_of s e.src = Some Topology.Shared ->
        e.src
      | _ -> -1
    else -1
  in
  match db with
  | Topology.Shared -> p
  | Topology.Local _ -> producer_if Op.Load_r
  | Topology.L3 -> producer_if Op.Store_r

(* A scheduled copy of [p]'s value into the shared bank to reuse (a
   local bank goes up through a StoreR, the third level comes up
   through a LoadR at [Global]); -1 when none. *)
let shared_copy s p ~(db : Topology.bank) ~avoid =
  match db with
  | Topology.Shared -> -1
  | Topology.Local _ ->
    find_copy s ~kind:Op.Store_r ~loc:None ~avoid (Ddg.consumers s.g p)
  | Topology.L3 ->
    reusable_copy_at s p ~kind:Op.Load_r ~loc:Topology.Global ~avoid

(* The fresh copy that brings a value defined in [db] up to the shared
   bank. *)
let fresh_up_copy s (db : Topology.bank) =
  match db with
  | Topology.Local i -> Fresh (Op.Store_r, cluster_loc s i)
  | Topology.L3 | Topology.Shared -> Fresh (Op.Load_r, Topology.Global)

(* The copy delivering a value from the shared bank to [rb] (in a
   clustered file, from the producer's cluster): kind and location. *)
let down_copy s (rb : Topology.bank) =
  match rb, s.config.rf with
  | Topology.Local j, Rf.Clustered _ -> (Op.Move, cluster_loc s j)
  | Topology.Local j, _ -> (Op.Load_r, cluster_loc s j)
  | (Topology.L3 | Topology.Shared), _ -> (Op.Store_r, Topology.Global)

(* How a value defined in [db] by [p] reaches [rb].  [root] is a node
   already holding it in the shared bank; failing that, [up] is a
   scheduled copy of it up to the shared bank to reuse.  Unless [rb] is
   the shared bank, [down] is a copy into [rb] to reuse off that shared
   node.  Each is -1 when absent; an absent [up] or [down] is a fresh
   copy.  A clustered file has no shared bank: its [root] is [p] and
   its [down] a Move. *)
type route = Direct | Route of { root : int; up : int; down : int }

let route_of s ~p ~(db : Topology.bank) ~(rb : Topology.bank) ~avoid =
  let reusable_down shared_node =
    if shared_node >= 0 then
      let kind, loc = down_copy s rb in
      reusable_copy_at s shared_node ~kind ~loc ~avoid
    else -1
  in
  if Topology.equal_bank db rb then Direct
  else
    match s.config.rf with
    | Rf.Monolithic _ -> Direct
    | Rf.Clustered _ -> (
      match rb with
      | Topology.Local _ -> Route { root = p; up = -1; down = reusable_down p }
      | Topology.Shared | Topology.L3 -> Direct)
    | Rf.Hierarchical _ ->
      let root = shared_root s p ~db in
      let up = if root >= 0 then -1 else shared_copy s p ~db ~avoid in
      let down =
        match rb with
        | Topology.Shared -> -1
        | Topology.Local _ | Topology.L3 ->
          reusable_down (if root >= 0 then root else up)
      in
      Route { root; up; down }

(* Plan the copies needed so that a value defined in [db] by [p] can be
   read from [rb]. *)
let plan_route s ~p ~(db : Topology.bank) ~(rb : Topology.bank) ~avoid :
    plan option =
  match route_of s ~p ~db ~rb ~avoid with
  | Direct -> None
  | Route { root; up; down } ->
    let src0, pre =
      if root >= 0 then (root, [])
      else if up >= 0 then (p, [ Reuse up ])
      else (p, [ fresh_up_copy s db ])
    in
    let steps =
      match rb with
      | Topology.Shared -> pre
      | Topology.Local _ | Topology.L3 ->
        let kind, loc = down_copy s rb in
        pre @ [ (if down >= 0 then Reuse down else Fresh (kind, loc)) ]
    in
    if steps = [] && src0 = p then None else Some { new_src = src0; steps }

(* The number of fresh copies in [plan_route]'s plan, without building
   it: the cluster-selection cost asks this for every candidate
   location of every placement. *)
let route_fresh s ~p ~db ~(rb : Topology.bank) ~avoid =
  match route_of s ~p ~db ~rb ~avoid with
  | Direct -> 0
  | Route { root; up; down } ->
    Bool.to_int (root < 0 && up < 0)
    + Bool.to_int (down < 0 && not (Topology.equal_bank rb Topology.Shared))

(* Rewire [edge] through the plan.  Returns the fresh nodes (with their
   locations) that now need scheduling, in dataflow order. *)
let apply_plan s ~anchor (edge : Ddg.edge) plan =
  Ddg.remove_edge s.g edge;
  let fresh = ref [] in
  let cur = ref plan.new_src in
  List.iter
    (fun step ->
      match step with
      | Reuse n -> cur := n
      | Fresh (k, loc) ->
        let n = Ddg.add_node s.g k in
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True !cur n;
        set_prio s n (prio_of s anchor -. 0.25);
        add_aux s ~anchor n;
        s.st.m_comm_inserted <- s.st.m_comm_inserted + 1;
        if Tr.enabled s.trace then
          (match k with
          | Op.Move -> Some Ev.Move
          | Op.Store_r -> Some Ev.Store_r
          | Op.Load_r -> Some Ev.Load_r
          | _ -> None)
          |> Option.iter (fun c -> Tr.emit s.trace (Ev.Comm_insert c));
        fresh := (n, loc) :: !fresh;
        cur := n)
    plan.steps;
  Ddg.add_edge s.g ~distance:edge.distance ~dep:Dep.True !cur edge.dst;
  (* a reused copy may be scheduled too late for this consumer: enforce
     the new dependence by ejecting the consumer (it will be replaced
     after the routing settles) *)
  (if Schedule.is_scheduled s.sched !cur && Schedule.is_scheduled s.sched edge.dst
   then
     let lat = Latency.of_def s.lat ~id:!cur ~kind:(kind_of s !cur) in
     if
       Schedule.cycle_of s.sched edge.dst
       < Schedule.cycle_of s.sched !cur + lat
         - (Schedule.ii s.sched * edge.distance)
     then eject s edge.dst);
  List.rev !fresh

(* The edges of [v] that may need routing, folded in order.  Only
   edges whose other endpoint is scheduled are considered — the rest
   get routed when that endpoint is placed.  An operand edge comes with
   the bank [db] its producer's value is defined in, a consumer edge
   with the bank [rb] its consumer reads from. *)
let rec fold_operand_edges s v f acc = function
  | [] -> acc
  | (e : Ddg.edge) :: tl ->
    let acc =
      if
        e.src <> v
        && Op.defines_value (kind_of s e.src)
        && Schedule.is_scheduled s.sched e.src
      then
        match def_bank_of s e.src with
        | Some db -> f acc e ~db
        | None -> acc
      else acc
    in
    fold_operand_edges s v f acc tl

let rec fold_consumer_edges s v f acc = function
  | [] -> acc
  | (e : Ddg.edge) :: tl ->
    let acc =
      if
        Dep.equal e.dep Dep.True
        && e.dst <> v
        && Schedule.is_scheduled s.sched e.dst
        && not (Op.equal_kind (kind_of s e.dst) Op.Move)
      then
        f acc e
          ~rb:
            (Topology.read_bank s.config (kind_of s e.dst)
               (Schedule.loc_of s.sched e.dst))
      else acc
    in
    fold_consumer_edges s v f acc tl

(* Routing needs of [v] placed at [loc], folded in order: every
   mismatched operand edge, then every mismatched consumer edge, as
   [f acc edge ~p ~db ~rb ~avoid] (value of [p] defined in [db], read
   from [rb]).
   NOTE: plans go stale as soon as one of them is applied (scheduling a
   fresh copy can eject or splice other nodes); apply only the first and
   recompute (see [first_route]). *)
let fold_routes s v ~loc f acc =
  let kind = kind_of s v in
  let acc =
    if Op.equal_kind kind Op.Move then acc
      (* a Move reads whatever local bank its producer is in *)
    else
      let rb = Topology.read_bank s.config kind loc in
      fold_operand_edges s v
        (fun acc (e : Ddg.edge) ~db -> f acc e ~p:e.src ~db ~rb ~avoid:e.dst)
        acc (Ddg.operands s.g v)
  in
  match Topology.def_bank s.config kind loc with
  | None -> acc
  | Some db ->
    fold_consumer_edges s v
      (fun acc (e : Ddg.edge) ~rb -> f acc e ~p:v ~db ~rb ~avoid:e.dst)
      acc (Ddg.succs s.g v)

(* The first routing need of [v] at [loc] and its plan. *)
let first_route s v ~loc =
  fold_routes s v ~loc
    (fun acc e ~p ~db ~rb ~avoid ->
      match acc with
      | Some _ -> acc
      | None ->
        Option.map (fun pl -> (e, pl)) (plan_route s ~p ~db ~rb ~avoid))
    None

let bank_tag = function
  | Topology.Local _ -> 0
  | Topology.Shared -> 1
  | Topology.L3 -> 2

(* [v], whose routes are scored, is not scheduled: no mark is its own. *)
let mark_down_copies s sn ~kind =
  List.iter
    (fun (e : Ddg.edge) ->
      if
        Op.equal_kind (kind_of s e.dst) kind
        && Schedule.is_scheduled s.sched e.dst
      then
        match Schedule.loc_of s.sched e.dst with
        | Topology.Cluster j -> s.sc_mark.(j) <- s.sc_edge
        | Topology.Global -> ())
    (Ddg.consumers s.g sn)

(* [route_of]'s shared node for the value [p] defines in [db] (its
   root, else its up copy; -1 for none) does not depend on the reading
   bank.  A clustered file has no shared bank: [p] is its own root, and
   its down copies are Moves. *)
let score_operand s v (c : cands) ~p ~(db : Topology.bank) =
  let hier =
    match s.config.rf with
    | Rf.Hierarchical _ -> true
    | Rf.Monolithic _ | Rf.Clustered _ -> false
  in
  let root = if hier then shared_root s p ~db else p in
  let sn = if root >= 0 then root else shared_copy s p ~db ~avoid:v in
  s.sc_edge <- s.sc_edge + 1;
  if sn >= 0 then
    mark_down_copies s sn ~kind:(if hier then Op.Load_r else Op.Move);
  for k = 0 to Array.length c.rbs - 1 do
    let rb = c.rbs.(k) in
    if not (Topology.equal_bank db rb) then
      let fresh =
        match (rb, s.config.rf) with
        | Topology.Local j, (Rf.Clustered _ | Rf.Hierarchical _) ->
          Bool.to_int (sn < 0) + Bool.to_int (s.sc_mark.(j) <> s.sc_edge)
        | _ -> route_fresh s ~p ~db ~rb ~avoid:v
      in
      s.sc_comm.(k) <- s.sc_comm.(k) + fresh
  done

let score_consumer s v (c : cands) ~rb ~avoid =
  let rec go k tag fresh =
    if k < Array.length c.dbs then
      match c.dbs.(k) with
      | Some db when not (Topology.equal_bank db rb) ->
        let fresh =
          if bank_tag db = tag then fresh
          else route_fresh s ~p:v ~db ~rb ~avoid
        in
        s.sc_comm.(k) <- s.sc_comm.(k) + fresh;
        go (k + 1) (bank_tag db) fresh
      | Some _ | None -> go (k + 1) tag fresh
  in
  go 0 (-1) 0

(* The fresh communication ops [v] (not a Move) needs at each candidate
   of [c], into [s.sc_comm]: cell [k] equals the sum of [route_fresh]
   over [fold_routes] at candidate [k], but one walk of [v]'s edges
   serves every candidate.
   - An operand edge's shared node depends on its producer only.  One
     walk of that node's consumers marks the clusters holding a
     scheduled down copy of it to reuse.
   - A consumer edge's count depends on [v]'s definition bank only
     through [equal_bank db rb] and [db]'s constructor: one
     [route_fresh] serves every candidate defining into a bank of that
     constructor. *)
let score_routes s v (c : cands) =
  Array.fill s.sc_comm 0 (Array.length c.rbs) 0;
  fold_operand_edges s v
    (fun () (e : Ddg.edge) ~db -> score_operand s v c ~p:e.src ~db)
    () (Ddg.operands s.g v);
  if Op.defines_value (kind_of s v) then
    fold_consumer_edges s v
      (fun () (e : Ddg.edge) ~rb -> score_consumer s v c ~rb ~avoid:e.dst)
      () (Ddg.succs s.g v)

(* Cost of placing [v] at [loc] without committing: [comm] fresh
   communication ops ({!score_routes}), slot availability, FU occupancy
   and bank fill.  Every window of II cycles asks the same slot
   question, so [v]'s earliest cycle does not enter. *)
let placement_cost s v ~comm ~loc =
  let slot_ok = Work.fits_any s.work (Work.prepare s.work s.g v ~loc) in
  let cluster = cluster_of_loc loc in
  let fu_fill =
    Work.total_occupancy s.work
      (if Op.is_memory (kind_of s v) then Topology.Mem cluster
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

(* ------------------------------------------------------------------ *)
(* Location selection                                                  *)

(* The cluster a scheduled node [v] executes in, or -1 (unscheduled,
   or at [Global]). *)
let cluster_at s v =
  if Schedule.is_scheduled s.sched v then
    match Schedule.loc_of s.sched v with
    | Topology.Cluster c -> c
    | Topology.Global -> -1
  else -1

(* Majority cluster among the scheduled consumers of [v], or -1.  Ties
   go to the first maximum in the fold order of [s.cc_counts]; the
   table is reset to its initial size on every call, so it folds as the
   fresh table each call used to build did. *)
let consumers_cluster s v =
  let counts = s.cc_counts in
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
let producer_cluster s v =
  let rec go = function
    | [] -> -1
    | (e : Ddg.edge) :: tl ->
      let c = cluster_at s e.src in
      if c >= 0 then c else go tl
  in
  go (Ddg.operands s.g v)

(* Bank of the (first scheduled) producer's value, for bank-directed
   placement of LoadR/StoreR in a three-level hierarchy. *)
let producer_def_bank s v =
  let rec go = function
    | [] -> None
    | (e : Ddg.edge) :: tl -> (
      match def_bank_of s e.src with None -> go tl | b -> b)
  in
  go (Ddg.operands s.g v)

(* Cluster [c], or a splice when there is none (-1). *)
let loc_or_splice s c = if c >= 0 then `Loc (cluster_loc s c) else `Splice

let decide_loc s v =
  let kind = kind_of s v in
  let c = s.exec.(Schedule.kind_tag kind) in
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
      let has_live_consumer =
        List.exists
          (fun (e : Ddg.edge) -> Schedule.is_scheduled s.sched e.dst)
          (Ddg.consumers s.g v)
      in
      if (not producer_ready) || not has_live_consumer then `Splice
      else
        (* in a three-level hierarchy the producer's bank directs the
           global transfers: a StoreR of a Shared value moves it down to
           L3, a LoadR of an L3 value brings it up to Shared — both
           execute at [Global].  Cluster-resident producers keep the
           two-level placement heuristics. *)
        let l3 = Topology.has_l3 s.config in
        match kind with
        | Op.Store_r
          when l3 && producer_def_bank s v = Some Topology.Shared ->
          `Loc Topology.Global
        | Op.Load_r when l3 && producer_def_bank s v = Some Topology.L3 ->
          `Loc Topology.Global
        | Op.Store_r -> loc_or_splice s (producer_cluster s v)
        | _ -> loc_or_splice s (consumers_cluster s v))
    | Op.Spill_load -> (
      match consumers_cluster s v with
      | -1 -> `Loc (List.hd locs)
      | c -> `Loc (cluster_loc s c))
    | Op.Spill_store -> (
      match producer_cluster s v with
      | -1 -> `Loc (List.hd locs)
      | c -> `Loc (cluster_loc s c))
    | Op.Fadd | Op.Fmul | Op.Fdiv | Op.Fsqrt | Op.Load | Op.Store ->
      (* Select_Cluster heuristic [37]: fewest new communications, then
         a free slot, then balanced FU/register use; the first of equal
         costs wins. *)
      score_routes s v c;
      let rec best k bl bc = function
        | [] -> bl
        | loc :: tl ->
          let cost = placement_cost s v ~comm:s.sc_comm.(k) ~loc in
          if cost < bc then best (k + 1) loc cost tl else best (k + 1) bl bc tl
      in
      `Loc (best 0 (List.hd locs) max_int locs))

(* ------------------------------------------------------------------ *)
(* Spilling                                                            *)

(* Whether [c] is placed and reads its operands from [bank]. *)
let reads_from s bank c =
  Ddg.mem s.g c
  && Schedule.is_scheduled s.sched c
  && Topology.equal_bank
       (Topology.read_bank s.config (kind_of s c) (Schedule.loc_of s.sched c))
       bank

(* An invariant is resident in [bank] when at least one scheduled
   direct consumer reads it from there. *)
let resident s bank (inv : Ddg.invariant) =
  let rec go = function [] -> false | c :: tl -> reads_from s bank c || go tl in
  go inv.inv_consumers

let invariant_residents s bank =
  let rec go n = function
    | [] -> n
    | inv :: tl -> go (if resident s bank inv then n + 1 else n) tl
  in
  go 0 (Ddg.invariants s.g)

(* Spill one value defined by [d] out of [bank].  For a distributed bank
   of a hierarchical RF the value is demoted to the shared bank
   (StoreR + LoadR per consumer); otherwise it goes to memory
   (Spill_store + Spill_load per consumer).  Returns the number of
   inserted nodes. *)
(* Grant back [ratio] budget per inserted node, up to a lifetime cap per
   attempt: unbounded replenishment lets a pathological config (e.g. one
   local write port) respill fresh copies forever. *)
let refund_spill s fresh =
  let cap = 24 * s.ratio * s.n0 in
  let grant = min (s.ratio * fresh) (max 0 (cap - s.refills)) in
  s.refills <- s.refills + grant;
  s.budget <- s.budget + grant

let spill_value s ~bank d =
  let fresh = ref 0 in
  let consumers = Ddg.consumers s.g d in
  let mk kind prio_anchor =
    let n = Ddg.add_node s.g kind in
    set_prio s n (prio_of s prio_anchor +. 0.125);
    Pqueue.push s.pq ~priority:(prio_of s n) n;
    incr fresh;
    n
  in
  let to_shared =
    match (s.config.rf, bank) with
    | Rf.Hierarchical _, Topology.Local _ -> true
    | _ -> false
  in
  let store_kind = if to_shared then Op.Store_r else Op.Spill_store in
  let load_kind = if to_shared then Op.Load_r else Op.Spill_load in
  (* The up-copy: a LoadR's value already exists in the shared bank (its
     own producer), so spilling it is a pure re-load; otherwise reuse an
     existing StoreR of the value, or insert one. *)
  let up =
    let reload_root =
      if to_shared && Op.equal_kind (kind_of s d) Op.Load_r then
        match Ddg.operands s.g d with
        | (e : Ddg.edge) :: _
          when def_bank_of s e.src = Some Topology.Shared ->
          Some e.src
        | _ -> None
      else if
        (* a load with no memory dependence can simply be re-issued:
           spilling its value costs a redundant load, not a store/load
           round trip *)
        (not to_shared)
        && Op.equal_kind (kind_of s d) Op.Load
        && Ddg.operands s.g d = []
      then Some d
      else None
    in
    match reload_root with
    | Some q -> q
    | None -> (
      let existing =
        List.find_opt
          (fun (e : Ddg.edge) ->
            Op.equal_kind (kind_of s e.dst) store_kind)
          consumers
      in
      match existing with
      | Some e -> e.dst
      | None ->
        let n = mk store_kind d in
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True d n;
        n)
  in
  List.iter
    (fun (e : Ddg.edge) ->
      let ck = kind_of s e.dst in
      if e.dst <> up && not (Op.equal_kind ck store_kind) then begin
        let down = mk load_kind e.dst in
        (* a reload copy is already as short as it gets: never respill *)
        set_spilled s down;
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True up down;
        Ddg.remove_edge s.g e;
        Ddg.add_edge s.g ~distance:e.distance ~dep:Dep.True down e.dst
      end)
    consumers;
  set_spilled s d;
  s.st.m_value_spills <- s.st.m_value_spills + 1;
  refund_spill s !fresh;
  if Tr.enabled s.trace then
    Tr.emit s.trace (Ev.Spill_insert { kind = Ev.Value; inserted = !fresh });
  !fresh

(* Demote an invariant out of [bank]: every scheduled consumer reading
   it there now reads through a LoadR (hierarchical) or a Spill_load
   (memory).  Returns the number of inserted nodes. *)
let spill_invariant s ~bank (inv : Ddg.invariant) =
  let fresh = ref 0 in
  let load_kind =
    match (s.config.rf, bank) with
    | Rf.Hierarchical _, Topology.Local _ -> Op.Load_r
    | _ -> Op.Spill_load
  in
  let consumers = inv.inv_consumers in
  List.iter
    (fun c ->
      if reads_from s bank c then begin
        let down = Ddg.add_node s.g load_kind in
        set_spilled s down;
        set_prio s down (prio_of s c -. 0.25);
        Pqueue.push s.pq ~priority:(prio_of s down) down;
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True down c;
        inv.inv_consumers <-
          down :: List.filter (fun x -> x <> c) inv.inv_consumers;
        incr fresh
      end)
    consumers;
  Hashtbl.replace s.inv_spilled
    (inv.inv_id, Topology.bank_code s.config bank) ();
  s.st.m_invariant_spills <- s.st.m_invariant_spills + 1;
  refund_spill s !fresh;
  if Tr.enabled s.trace then
    Tr.emit s.trace
      (Ev.Spill_insert { kind = Ev.Invariant; inserted = !fresh });
  !fresh

let spillable_def s ~bank d =
  (not (is_spilled s d))
  &&
  match (kind_of s d, bank) with
  | (Op.Fadd | Op.Fmul | Op.Fdiv | Op.Fsqrt | Op.Load), _ -> true
  | Op.Load_r, Topology.Local _ -> true  (* re-load from the shared copy *)
  | (Op.Store_r | Op.Spill_load), (Topology.Shared | Topology.L3) -> true
  | _ -> false

(* One spill decision for an overflowing [bank]: prefer an unspilled
   invariant (it frees a whole-loop register), otherwise the value with
   the longest lifetime span. *)
let pick_and_spill s ~bank lts =
  if growth_cap s then 0
  else
  let inv_candidate =
    List.find_opt
      (fun (inv : Ddg.invariant) ->
        resident s bank inv
        && not
             (Hashtbl.mem s.inv_spilled
                (inv.inv_id, Topology.bank_code s.config bank)))
      (Ddg.invariants s.g)
  in
  match inv_candidate with
  | Some inv -> spill_invariant s ~bank inv
  | None -> (
    let best =
      List.fold_left
        (fun acc (l : Lifetimes.lifetime) ->
          if
            Topology.equal_bank l.bank bank
            && Lifetimes.span l >= 2
            && spillable_def s ~bank l.def
          then
            match acc with
            | Some b when Lifetimes.span b >= Lifetimes.span l -> acc
            | _ -> Some l
          else acc)
        None lts
    in
    match best with
    | Some l -> spill_value s ~bank l.def
    | None -> 0)

(* Spill out of [bank] until [extra] more registers fit under [cap],
   for at most [guard] more rounds.  Returns the nodes inserted; sets
   [unfixable] when the bank stays over capacity with nothing left to
   spill. *)
let rec fix_bank s ~bank ~cap ~ninv ~extra ~unfixable ~guard inserted =
  if guard <= 0 then inserted
  else
    let pressure = Pressure.pressure s.press ~bank in
    if pressure + ninv + extra <= cap then inserted
    else
      let used = pressure + invariant_residents s bank in
      if used + extra <= cap then inserted
      else
        match pick_and_spill s ~bank (Pressure.lifetimes s.press) with
        | 0 ->
          Logs.debug (fun m ->
              m "unfixable: bank %a used=%d cap=%d ii=%d nodes=%d"
                Topology.pp_bank bank used cap (Schedule.ii s.sched)
                (Ddg.num_nodes s.g));
          unfixable := true;
          inserted
        | n ->
          fix_bank s ~bank ~cap ~ninv ~extra ~unfixable ~guard:(guard - 1)
            (inserted + n)

(* Check every finite bank; insert spill code until the requirement fits.
   Returns the number of inserted nodes; [`Unfixable] when a bank stays
   over capacity with no spill candidate left.

   The requirement comes from the incremental tracker ([Pressure]), so a
   check that inserts nothing is O(banks × II); the full lifetime list is
   only materialized when a bank actually overflows.

   A bank holds at most every invariant, so [pressure + |invariants| +
   extra <= cap] settles a bank without counting its residents — the
   usual outcome of the check that runs after every step. *)
let check_insert_spill ?(force_bank = None) s =
  (* spilling never adds invariants *)
  let ninv = List.length (Ddg.invariants s.g) in
  let inserted = ref 0 and unfixable = ref false in
  for i = 0 to Array.length s.finite_banks - 1 do
    let bank, cap = s.finite_banks.(i) in
    let extra =
      match force_bank with
      | Some b when Topology.equal_bank b bank -> 1
      | _ -> 0
    in
    (* at most 63 rounds per bank *)
    inserted :=
      !inserted + fix_bank s ~bank ~cap ~ninv ~extra ~unfixable ~guard:63 0
  done;
  if !unfixable then `Unfixable else `Inserted !inserted

(* ------------------------------------------------------------------ *)
(* Final cleanup and checks                                            *)

(* Remove communication nodes whose value is never read (left behind by
   ejection/re-scheduling churn). *)
let prune_dead_comm s =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if
          Ddg.mem s.g v
          && is_comm_kind (kind_of s v)
          && Ddg.consumers s.g v = []
          && not
               (List.exists
                  (fun (inv : Ddg.invariant) ->
                    List.mem v inv.inv_consumers)
                  (Ddg.invariants s.g))
        then begin
          unplace_node s v;
          Pqueue.remove s.pq v;
          Ddg.remove_node s.g v;
          changed := true
        end)
      (Ddg.nodes s.g)
  done

(* Residual unrouted operand edges can survive rare eject/splice
   interleavings; route them now exactly as scheduling-time routing
   would.  Returns the plans applied (fresh nodes already scheduled). *)
let repair_banks s ~schedule_fresh =
  let repaired = ref 0 in
  List.iter
    (fun (e : Ddg.edge) ->
      if
        Ddg.has_edge s.g e
        && Dep.equal e.dep Dep.True
        && Op.defines_value (kind_of s e.src)
        && (not (Op.equal_kind (kind_of s e.dst) Op.Move))
        && Schedule.is_scheduled s.sched e.src
        && Schedule.is_scheduled s.sched e.dst
      then
        match def_bank_of s e.src with
        | None -> ()
        | Some db ->
          let rb =
            Topology.read_bank s.config (kind_of s e.dst)
              (Schedule.loc_of s.sched e.dst)
          in
          if not (Topology.equal_bank db rb) then (
            match plan_route s ~p:e.src ~db ~rb ~avoid:e.dst with
            | None -> ()
            | Some plan ->
              incr repaired;
              schedule_fresh (apply_plan s ~anchor:e.dst e plan)))
    (Ddg.edges s.g);
  !repaired

(* Final consistency net for dependences: eject the consumer of any
   violated edge so it is rescheduled within its window. *)
let repair_deps s =
  let ii = Schedule.ii s.sched in
  let count = ref 0 in
  List.iter
    (fun (e : Ddg.edge) ->
      if Ddg.has_edge s.g e then
        if
          Schedule.is_scheduled s.sched e.src
          && Schedule.is_scheduled s.sched e.dst
          && Schedule.cycle_of s.sched e.dst
             < Schedule.cycle_of s.sched e.src + Latency.of_edge s.lat s.g e
               - (ii * e.distance)
        then begin
          incr count;
          eject s e.dst
        end)
    (Ddg.edges s.g);
  !count

let pressure_ok s =
  Array.for_all
    (fun (bank, cap) ->
      Pressure.pressure s.press ~bank + invariant_residents s bank <= cap)
    s.finite_banks

(* Explicit rotating allocation per bank, with capacity reduced by the
   invariant residents. *)
let allocation_failure s =
  Tr.span s.trace Ev.Regalloc (fun () ->
      let ii = Schedule.ii s.sched in
      let lts = Pressure.lifetimes s.press in
      Array.fold_left
        (fun acc (bank, cap) ->
          match acc with
          | Some _ -> acc
          | None -> (
            let capacity =
              Cap.Finite (max 0 (cap - invariant_residents s bank))
            in
            match
              Regalloc.allocate_bank ~trace:s.trace ~ii ~bank ~capacity lts
            with
            | Some _ -> None
            | None -> Some bank))
        None s.finite_banks)

let all_scheduled s =
  List.for_all (fun v -> Schedule.is_scheduled s.sched v) (Ddg.nodes s.g)

(* ------------------------------------------------------------------ *)
(* One attempt at a given II                                           *)

let attempt config opts g0 ~order ~ii ~trace ~arena =
  let g = Ddg.copy g0 in
  let lat = Latency.make ~override:opts.load_override config in
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
      spilled = Bytes.make ids '\000';
      inv_spilled = Hashtbl.create 16;
      finite_banks =
        Topology.all_banks config
        |> List.filter_map (fun b ->
               match Topology.bank_capacity config b with
               | Cap.Finite cap -> Some (b, cap)
               | Cap.Inf -> None)
        |> Array.of_list;
      exec =
        (let none = { locs = []; rbs = [||]; dbs = [||] } in
         let t = Array.make (List.length Op.all_kinds) none in
         List.iter
           (fun k ->
             let locs = Topology.exec_locs config k in
             let at f = Array.of_list (List.map (f config k) locs) in
             t.(Schedule.kind_tag k) <-
               { locs; rbs = at Topology.read_bank; dbs = at Topology.def_bank })
           Op.all_kinds;
         t);
      cc_counts = Hashtbl.create 4;
      sc_comm = Array.make (Config.clusters config) 0;
      sc_mark = Array.make (Config.clusters config) 0;
      sc_edge = 0;
      budget = opts.budget_ratio * max 1 (Ddg.num_nodes g);
      refills = 0;
      ratio = opts.budget_ratio;
      opts;
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
  List.iter (fun v -> Pqueue.push s.pq ~priority:(prio_of s v) v) order;
  let schedule_fresh fresh =
    List.iter (fun (n, loc) -> schedule_node s n ~loc) fresh
  in
  let unfixable_steps = ref 0 in
  let rec loop () =
    if s.budget <= 0 then None
    else
      match Pqueue.pop s.pq with
      | Some u ->
        if (not (Ddg.mem s.g u)) || Schedule.is_scheduled s.sched u then
          loop ()
        else begin
          s.budget <- s.budget - 1;
          s.st.m_attempts <- s.st.m_attempts + 1;
          (match decide_loc s u with
          | `Splice -> splice_out s u
          | `Loc loc ->
            (* apply one route at a time: placing a fresh copy can eject
               or splice nodes that other pending plans refer to, so each
               plan is recomputed against the current graph *)
            let rec route_all guard =
              if guard > 0 && Ddg.mem s.g u then
                match first_route s u ~loc with
                | None -> ()
                | Some (edge, plan) ->
                  schedule_fresh (apply_plan s ~anchor:u edge plan);
                  route_all (guard - 1)
            in
            route_all 32;
            if Ddg.mem s.g u then schedule_node s u ~loc);
          (match check_insert_spill s with
          | `Unfixable ->
            (* a bank is over capacity with nothing left to spill right
               now; keep scheduling — ejections may shorten the
               offending lifetimes — but only for a bounded number of
               over-pressure steps, then restart at II+1 *)
            unfixable_steps := !unfixable_steps + 1;
            if !unfixable_steps > 4 then raise Attempt_failed
          | `Inserted _ -> ());
          loop ()
        end
      | None ->
        if not (all_scheduled s) then
          (* some node was descheduled without being requeued; give up *)
          None
        else if
          (repair_banks s ~schedule_fresh > 0 || repair_deps s > 0)
          && s.budget > 0
        then loop ()
        else begin
          prune_dead_comm s;
          if not (pressure_ok s) then begin
            match check_insert_spill s with
            | `Inserted n when n > 0 && s.budget > 0 -> loop ()
            | `Inserted _ | `Unfixable -> None
          end
          else
            match allocation_failure s with
            | None -> Some s
            | Some bank -> (
              match check_insert_spill ~force_bank:(Some bank) s with
              | `Inserted n when n > 0 && s.budget > 0 -> loop ()
              | `Inserted _ | `Unfixable -> None)
        end
  in
  let result = try loop () with Attempt_failed -> None in
  Ddg.set_watcher g None;
  result

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let schedule ?(opts = default_options) ?(trace = Tr.off) (config : Config.t)
    (g0 : Ddg.t) : (outcome, error) result =
  let t0 = Unix.gettimeofday () in
  let lat = Latency.make ~override:opts.load_override config in
  (* one SCC/RecMII pass serves both the bound and the order *)
  let recs, mii =
    Tr.span trace Ev.Mii (fun () ->
        let recs = Mii.recurrences lat g0 in
        (recs, Mii.compute ~lat ~recs config g0))
  in
  let max_ii =
    match opts.max_ii with Some m -> m | None -> max (4 * mii) (mii + 128)
  in
  (* the priority order does not depend on II: compute it once *)
  let order =
    Tr.span trace Ev.Order (fun () ->
        match opts.ordering with
        | `Hrms -> Order.compute ~lat ~recs config g0
        | `Topological ->
          let asap, _ = Order.asap_alap lat g0 in
          List.sort
            (fun a b -> compare (asap a, a) (asap b, b))
            (Ddg.nodes g0))
  in
  let restarts = ref 0 in
  (* one arena serves every II attempt of this call: escalating re-uses
     the flat tables instead of reallocating them *)
  let arena = Arena.create () in
  let rec search ii =
    if ii > max_ii then Error (`No_schedule ii)
    else begin
      if Tr.enabled trace then Tr.emit trace (Ev.II_try ii);
      match attempt config opts g0 ~order ~ii ~trace ~arena with
      | Some s ->
        let seconds = Unix.gettimeofday () -. t0 in
        let bounds = Mii.bounds ~lat:s.lat config s.g in
        let schedule = Work.product s.work ~next_id:(Ddg.next_id s.g) in
        Ok
          {
            ii;
            mii;
            bounds;
            sc = Schedule.stage_count schedule;
            schedule;
            graph = s.g;
            invariant_residents =
              Array.init (Config.clusters config + 2) (fun i ->
                  invariant_residents s (Topology.bank_of_code config i));
            seconds;
            stats =
              {
                ejections = s.st.m_ejections;
                forcings = s.st.m_forcings;
                value_spills = s.st.m_value_spills;
                invariant_spills = s.st.m_invariant_spills;
                comm_inserted = s.st.m_comm_inserted;
                attempts = s.st.m_attempts;
                ii_restarts = !restarts;
              };
          }
      | None ->
        incr restarts;
        (* the paper increments II by 1; after many failures we grow
           geometrically so pathological loops (tiny banks, big bodies)
           converge in reasonable time — the first 8 steps are faithful *)
        let step = if !restarts <= 8 then 1 else max 1 (ii / 8) in
        search (ii + step)
    end
  in
  Tr.span trace Ev.Schedule (fun () -> search mii)
