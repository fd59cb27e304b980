(** Communication routing: which copies carry a value from the bank it
    is defined in to the bank that reads it, which of them already
    exist, and the graph surgery that inserts the rest.  A part of
    {!Engine}, over an {!Attempt}. *)

open Hcrf_ir
open Hcrf_machine
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event

(* [avoid] is the consumer the route is being planned for: reusing it
   (or a copy of its own output) as a step would wire the consumer's
   value back into itself and silently disconnect the producer.  The
   copy's id, or -1 when there is none. *)
let rec find_copy (s : Attempt.t) ~kind ~loc ~avoid = function
  | [] -> -1
  | (e : Ddg.edge) :: tl ->
    if
      e.dst <> avoid
      && Op.equal_kind (Ddg.kind s.g e.dst) kind
      && Schedule.is_scheduled s.sched e.dst
      && (match loc with
         | None -> true
         | Some loc -> Topology.equal_loc (Schedule.loc_of s.sched e.dst) loc)
    then e.dst
    else find_copy s ~kind ~loc ~avoid tl

let reusable_copy_at (s : Attempt.t) src ~kind ~loc ~avoid =
  find_copy s ~kind ~loc:(Some loc) ~avoid (Ddg.consumers s.g src)

(* A node already holding [p]'s value in the shared bank, given [db],
   the bank of [p]'s (possibly not yet placed) definition; -1 when
   none.  A LoadR's producer, or a StoreR@Global's, holds the value it
   copies. *)
let shared_root (s : Attempt.t) p ~(db : Topology.bank) =
  let producer_if kind =
    if Op.equal_kind (Ddg.kind s.g p) kind then
      match Ddg.operands s.g p with
      | (e : Ddg.edge) :: _ -> (
        match Schedule.def_bank s.sched s.g e.src with
        | Some Topology.Shared -> e.src
        | _ -> -1)
      | [] -> -1
    else -1
  in
  match db with
  | Topology.Shared -> p
  | Topology.Local _ -> producer_if Op.Load_r
  | Topology.L3 -> producer_if Op.Store_r

(* A scheduled copy of [p]'s value into the shared bank to reuse (a
   local bank goes up through a StoreR, the third level comes up
   through a LoadR at [Global]); -1 when none. *)
let shared_copy (s : Attempt.t) p ~(db : Topology.bank) ~avoid =
  match db with
  | Topology.Shared -> -1
  | Topology.Local _ ->
    find_copy s ~kind:Op.Store_r ~loc:None ~avoid (Ddg.consumers s.g p)
  | Topology.L3 ->
    reusable_copy_at s p ~kind:Op.Load_r ~loc:Topology.Global ~avoid

type copies = { root : int; up : int; down : int }
type t = Direct | Route of copies

let route_of (s : Attempt.t) ~p ~(db : Topology.bank) ~(rb : Topology.bank)
    ~avoid =
  let reusable_down shared_node =
    if shared_node >= 0 then
      let kind, loc = Topology.down_copy s.config rb in
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

let route_fresh s ~p ~db ~(rb : Topology.bank) ~avoid =
  match route_of s ~p ~db ~rb ~avoid with
  | Direct -> 0
  | Route { root; up; down } ->
    Bool.to_int (root < 0 && up < 0)
    + Bool.to_int (down < 0 && not (Topology.equal_bank rb Topology.Shared))

(* Insert a fresh copy of [kind] reading [src], for [anchor]. *)
let fresh_copy (s : Attempt.t) ~anchor ~src (kind, loc) fresh =
  let n = Ddg.add_node s.g kind in
  Ddg.add_edge s.g ~distance:0 ~dep:Dep.True src n;
  Attempt.set_prio s n (Attempt.prio_of s anchor -. 0.25);
  Attempt.add_aux s ~anchor n;
  s.st.m_comm_inserted <- s.st.m_comm_inserted + 1;
  if Tr.enabled s.trace then
    (match kind with
    | Op.Move -> Some Ev.Move
    | Op.Store_r -> Some Ev.Store_r
    | Op.Load_r -> Some Ev.Load_r
    | _ -> None)
    |> Option.iter (fun c -> Tr.emit s.trace (Ev.Comm_insert c));
  fresh := (n, loc) :: !fresh;
  n

let apply (s : Attempt.t) ~anchor (edge : Ddg.edge) ~p ~db ~rb
    { root; up; down } =
  Ddg.remove_edge s.g edge;
  let fresh = ref [] in
  let shared =
    if root >= 0 then root
    else if up >= 0 then up
    else fresh_copy s ~anchor ~src:p (Topology.up_copy s.config db) fresh
  in
  let last =
    match rb with
    | Topology.Shared -> shared
    | Topology.Local _ | Topology.L3 ->
      if down >= 0 then down
      else
        fresh_copy s ~anchor ~src:shared
          (Topology.down_copy s.config rb) fresh
  in
  Ddg.add_edge s.g ~distance:edge.distance ~dep:Dep.True last edge.dst;
  (* a reused copy may be scheduled too late for this consumer: enforce
     the new dependence by ejecting the consumer (it will be replaced
     after the routing settles) *)
  (if
     Schedule.is_scheduled s.sched last
     && Schedule.is_scheduled s.sched edge.dst
   then
     let lat = Latency.of_def s.lat ~id:last ~kind:(Ddg.kind s.g last) in
     if
       Schedule.cycle_of s.sched edge.dst
       < Schedule.cycle_of s.sched last + lat
         - (Schedule.ii s.sched * edge.distance)
     then Attempt.eject s edge.dst);
  List.iter
    (fun (n, loc) -> Attempt.schedule_node s n ~loc)
    (List.rev !fresh)

let rec fold_operand_edges (s : Attempt.t) v f acc = function
  | [] -> acc
  | (e : Ddg.edge) :: tl ->
    let acc =
      if
        e.src <> v
        && Op.defines_value (Ddg.kind s.g e.src)
        && Schedule.is_scheduled s.sched e.src
      then
        match Schedule.def_bank s.sched s.g e.src with
        | Some db -> f acc e ~db
        | None -> acc
      else acc
    in
    fold_operand_edges s v f acc tl

let rec fold_consumer_edges (s : Attempt.t) v f acc = function
  | [] -> acc
  | (e : Ddg.edge) :: tl ->
    let acc =
      if
        Dep.equal e.dep Dep.True
        && e.dst <> v
        && Schedule.is_scheduled s.sched e.dst
        && not (Op.equal_kind (Ddg.kind s.g e.dst) Op.Move)
      then
        f acc e
          ~rb:
            (Topology.read_bank s.config (Ddg.kind s.g e.dst)
               (Schedule.loc_of s.sched e.dst))
      else acc
    in
    fold_consumer_edges s v f acc tl

(* Route the first routing need of [v] at [loc], if any: every
   mismatched operand edge, then every mismatched consumer edge, in
   order.  Routes go stale as soon as one of them is applied (scheduling
   a fresh copy can eject or splice other nodes), so only the first is
   applied; the caller asks again. *)
let route_first (s : Attempt.t) v ~loc =
  let first acc e ~p ~db ~rb =
    match acc with
    | Some _ -> acc
    | None -> (
      match route_of s ~p ~db ~rb ~avoid:e.Ddg.dst with
      | Direct -> None
      | Route r -> Some (e, p, db, rb, r))
  in
  let kind = Ddg.kind s.g v in
  let acc =
    if Op.equal_kind kind Op.Move then None
      (* a Move reads whatever local bank its producer is in *)
    else
      let rb = Topology.read_bank s.config kind loc in
      fold_operand_edges s v
        (fun acc (e : Ddg.edge) ~db -> first acc e ~p:e.src ~db ~rb)
        None (Ddg.operands s.g v)
  in
  let need =
    match Topology.def_bank s.config kind loc with
    | None -> acc
    | Some db ->
      fold_consumer_edges s v
        (fun acc e ~rb -> first acc e ~p:v ~db ~rb)
        acc (Ddg.succs s.g v)
  in
  match need with
  | None -> false
  | Some (e, p, db, rb, r) ->
    apply s ~anchor:v e ~p ~db ~rb r;
    true
