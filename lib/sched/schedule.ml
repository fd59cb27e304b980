(** Partial (and, eventually, complete) modulo schedules.

    An entry assigns a node an issue cycle (in the flat, non-modulo time
    axis — stage count falls out of the maximum cycle) and an execution
    location.  The reservation table is kept in sync by [place]/[unplace].

    [estart]/[lstart] are the classic windows derived from the *scheduled*
    neighbours: a node may issue at cycle c only if
    c >= cycle(p) + latency(e) - II * distance(e) for scheduled
    predecessors p, and symmetrically for scheduled successors.

    Storage is flat: per-node int columns indexed by node id (cycle with
    a [min_int] sentinel, encoded location, encoded definition bank), a
    per-bank count of scheduled definitions (O(1) bank-fill queries for
    cluster selection), and a cache of precompiled reservation vectors
    keyed by (op kind, location, Move source bank) so the engine's
    candidate scan probes the reservation table without building a
    [uses] list per cycle.  Locations and definition banks decode to
    values built once per schedule, so [loc_of], [cycle_of] and
    [def_bank] allocate nothing. *)

open Hcrf_ir
open Hcrf_machine

type entry = { cycle : int; loc : Topology.loc }

type t = {
  config : Config.t;
  ii : int;
  lat : Latency.t;
  mrt : Mrt.t;
  nclusters : int;
  mutable e_cycle : int array;  (* id -> issue cycle; min_int = unscheduled *)
  mutable e_loc : int array;    (* id -> location code (-1 Global, i cluster) *)
  mutable e_bank : int array;   (* id -> def-bank index, -1 when none *)
  mutable cap : int;            (* length of the entry columns *)
  mutable nsched : int;
  bank_defs : int array;        (* bank index -> scheduled defs there *)
  ucache : Mrt.cuses option array array;
      (* block (kind, or Move source bank) -> location -> compiled
         reservation; a block is allocated on first use *)
  arena : Arena.t option;
  locs : Topology.loc array;    (* location code + 1 -> location *)
  banks : Topology.bank option array;  (* bank index -> [Some bank] *)
}

let unscheduled = min_int

(* Arena slot ids for the entry columns (see {!Arena}). *)
let slot_cycle = 7
let slot_loc = 8
let slot_bank = 9

let loc_code = function Topology.Global -> -1 | Topology.Cluster i -> i

(* Bank index: Local i -> i, Shared -> #clusters, L3 -> #clusters + 1;
   -1 encodes "no bank". *)
let bank_index t = function
  | Topology.Local i -> i
  | Topology.Shared -> t.nclusters
  | Topology.L3 -> t.nclusters + 1

let kind_tag = function
  | Op.Fadd -> 0 | Op.Fmul -> 1 | Op.Fdiv -> 2 | Op.Fsqrt -> 3
  | Op.Load -> 4 | Op.Store -> 5 | Op.Move -> 6 | Op.Load_r -> 7
  | Op.Store_r -> 8 | Op.Spill_load -> 9 | Op.Spill_store -> 10

let n_kinds = List.length Op.all_kinds

let create ?arena ?(lat : Latency.t option) (config : Config.t) ~ii =
  let lat = match lat with Some l -> l | None -> Latency.make config in
  let nclusters = Config.clusters config in
  let cap = 256 in
  let e_cycle, e_loc, e_bank =
    match arena with
    | Some a ->
      ( Arena.ints a ~id:slot_cycle ~fill:unscheduled cap,
        Arena.ints a ~id:slot_loc ~fill:(-1) cap,
        Arena.ints a ~id:slot_bank ~fill:(-1) cap )
    | None ->
      (Array.make cap unscheduled, Array.make cap (-1), Array.make cap (-1))
  in
  { config; ii; lat; mrt = Mrt.create ?arena config ~ii; nclusters;
    e_cycle; e_loc; e_bank; cap; nsched = 0;
    bank_defs = Array.make (nclusters + 2) 0;
    ucache = Array.make (n_kinds + nclusters + 2) [||]; arena;
    locs =
      Array.init (nclusters + 1) (function
        | 0 -> Topology.Global
        | i -> Topology.Cluster (i - 1));
    banks =
      Array.init (nclusters + 2) (fun i ->
          Some (Topology.bank_of_code config i)) }

let grow t id =
  let cap' = max (2 * t.cap) (id + 1) in
  let extend a fill slot =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    (match t.arena with
    | Some ar -> Arena.keep_ints ar ~id:slot a'
    | None -> ());
    a'
  in
  t.e_cycle <- extend t.e_cycle unscheduled slot_cycle;
  t.e_loc <- extend t.e_loc (-1) slot_loc;
  t.e_bank <- extend t.e_bank (-1) slot_bank;
  t.cap <- cap'

let ii t = t.ii
let is_scheduled t v = v < t.cap && v >= 0 && t.e_cycle.(v) <> unscheduled

let not_scheduled v = Fmt.invalid_arg "Schedule: node %d not scheduled" v

let cycle_of t v = if is_scheduled t v then t.e_cycle.(v) else not_scheduled v

let loc_of t v =
  if is_scheduled t v then t.locs.(t.e_loc.(v) + 1) else not_scheduled v

let entry t v =
  if is_scheduled t v then Some { cycle = t.e_cycle.(v); loc = loc_of t v }
  else None

let entry_exn t v =
  if is_scheduled t v then { cycle = t.e_cycle.(v); loc = loc_of t v }
  else not_scheduled v

let scheduled_nodes t =
  let acc = ref [] in
  for v = t.cap - 1 downto 0 do
    if t.e_cycle.(v) <> unscheduled then acc := v :: !acc
  done;
  !acc

let num_scheduled t = t.nsched

(** Bank holding the value defined by scheduled node [v], if any. *)
let def_bank t (_g : Ddg.t) v =
  if not (is_scheduled t v) then None
  else match t.e_bank.(v) with -1 -> None | i -> t.banks.(i)

(** Scheduled definitions currently living in [bank] (for the cluster
    selection and down-copy heuristics). *)
let bank_def_count t bank = t.bank_defs.(bank_index t bank)

(* Source bank for a [Move]'s reservation: the bank of its producer. *)
let move_src_bank t (g : Ddg.t) v =
  let rec first = function
    | [] -> None
    | (e : Ddg.edge) :: tl -> (
      match def_bank t g e.src with None -> first tl | b -> b)
  in
  first (Ddg.operands g v)

let uses_of t (g : Ddg.t) v ~loc =
  let kind = Ddg.kind g v in
  let src =
    match kind with Op.Move -> move_src_bank t g v | _ -> None
  in
  Topology.uses t.config kind loc ~src

(* Reservation vector of [v] at [loc], compiled once per
   (kind, location, Move source bank) and cached in [ucache]: one block
   of locations per kind, then one per source bank for Moves that have
   one (a Move without lands in its kind's block).  Blocks are
   allocated on first use: every outcome keeps its schedule, and most
   use a few kinds and no Moves. *)
let cuses_of t (g : Ddg.t) v ~loc =
  let kind = Ddg.kind g v in
  let src =
    match kind with Op.Move -> move_src_bank t g v | _ -> None
  in
  let block =
    match src with
    | None -> kind_tag kind
    | Some b -> n_kinds + bank_index t b
  in
  let b =
    match t.ucache.(block) with
    | [||] ->
      let b = Array.make (t.nclusters + 1) None in
      t.ucache.(block) <- b;
      b
    | b -> b
  in
  let l = loc_code loc + 1 in
  match b.(l) with
  | Some cu -> cu
  | None ->
    let cu = Mrt.compile t.mrt (Topology.uses t.config kind loc ~src) in
    b.(l) <- Some cu;
    cu

(** Earliest legal issue cycle given the scheduled predecessors. *)
let estart t (g : Ddg.t) v =
  let rec go acc = function
    | [] -> acc
    | (e : Ddg.edge) :: tl ->
      if is_scheduled t e.src then
        go
          (max acc
             (t.e_cycle.(e.src) + Latency.of_edge t.lat g e
             - (t.ii * e.distance)))
          tl
      else go acc tl
  in
  go 0 (Ddg.preds g v)

(** Latest legal issue cycle given the scheduled successors; [None] when
    no successor is scheduled. *)
let lstart t (g : Ddg.t) v =
  let rec go found acc = function
    | [] -> if found then Some acc else None
    | (e : Ddg.edge) :: tl ->
      if is_scheduled t e.dst then
        go true
          (min acc
             (t.e_cycle.(e.dst) - Latency.of_edge t.lat g e
             + (t.ii * e.distance)))
          tl
      else go found acc tl
  in
  go false max_int (Ddg.succs g v)

(* Deliberate fault injection for the differential fuzzer (hcrf_check):
   [Lax_resources] makes [can_place] ignore the reservation table, so the
   engine happily oversubscribes functional units and ports.  [Validate]
   rebuilds occupancy independently and must flag every such schedule;
   the fuzzer asserts it does.  Never set outside tests/campaigns. *)
type fault = Lax_resources

let fault : fault option ref = ref None

(* ---- precompiled probing (the engine's candidate scan) ------------- *)

let prepare_uses t g v ~loc = cuses_of t g v ~loc

let can_place_prepared t cu ~cycle =
  match !fault with
  | Some Lax_resources -> true
  | None -> Mrt.can_place_c t.mrt cu ~cycle

let place_prepared t g v cu ~cycle ~loc =
  if is_scheduled t v then Fmt.invalid_arg "Schedule.place: %d placed" v;
  Mrt.place_c t.mrt ~node:v cu ~cycle;
  if v >= t.cap then grow t v;
  t.e_cycle.(v) <- cycle;
  t.e_loc.(v) <- loc_code loc;
  let bank =
    match Topology.def_bank t.config (Ddg.kind g v) loc with
    | None -> -1
    | Some b ->
      let i = bank_index t b in
      t.bank_defs.(i) <- t.bank_defs.(i) + 1;
      i
  in
  t.e_bank.(v) <- bank;
  t.nsched <- t.nsched + 1

let conflicts_prepared t cu ~cycle = Mrt.conflicts_c t.mrt cu ~cycle

(* ---- list-based interface ----------------------------------------- *)

let can_place t g v ~cycle ~loc =
  match !fault with
  | Some Lax_resources -> true
  | None -> Mrt.can_place_c t.mrt (cuses_of t g v ~loc) ~cycle

let place t g v ~cycle ~loc =
  place_prepared t g v (cuses_of t g v ~loc) ~cycle ~loc

let unplace t v =
  if is_scheduled t v then begin
    Mrt.remove t.mrt ~node:v;
    t.e_cycle.(v) <- unscheduled;
    (match t.e_bank.(v) with
    | -1 -> ()
    | i -> t.bank_defs.(i) <- t.bank_defs.(i) - 1);
    t.e_bank.(v) <- -1;
    t.nsched <- t.nsched - 1
  end

(** Nodes that must be ejected to reserve [v]'s resources at [cycle]. *)
let resource_conflicts t g v ~cycle ~loc =
  Mrt.conflicts_c t.mrt (cuses_of t g v ~loc) ~cycle

(** Scheduled neighbours whose dependence constraints are violated by [v]
    issuing at [cycle]. *)
let dependence_violations t (g : Ddg.t) v ~cycle =
  let pred_bad (e : Ddg.edge) =
    e.src <> v
    && is_scheduled t e.src
    && t.e_cycle.(e.src) + Latency.of_edge t.lat g e - (t.ii * e.distance)
       > cycle
  and succ_bad (e : Ddg.edge) =
    e.dst <> v
    && is_scheduled t e.dst
    && cycle + Latency.of_edge t.lat g e - (t.ii * e.distance)
       > t.e_cycle.(e.dst)
  in
  (* usually nothing is violated: answer that without building lists *)
  if
    not
      (List.exists pred_bad (Ddg.preds g v)
      || List.exists succ_bad (Ddg.succs g v))
  then []
  else
    let bad_preds =
      List.filter_map
        (fun (e : Ddg.edge) -> if pred_bad e then Some e.src else None)
        (Ddg.preds g v)
    and bad_succs =
      List.filter_map
        (fun (e : Ddg.edge) -> if succ_bad e then Some e.dst else None)
        (Ddg.succs g v)
    in
    List.sort_uniq Int.compare (bad_preds @ bad_succs)

let max_cycle t =
  let m = ref 0 in
  for v = 0 to t.cap - 1 do
    if t.e_cycle.(v) <> unscheduled && t.e_cycle.(v) > !m then
      m := t.e_cycle.(v)
  done;
  !m

(** Number of stages of II cycles in the kernel. *)
let stage_count t = (max_cycle t / t.ii) + 1

let pp ppf t =
  let entries =
    List.map (fun v -> (v, entry_exn t v)) (scheduled_nodes t)
    |> List.sort (fun (_, a) (_, b) -> compare (a.cycle, a.loc) (b.cycle, b.loc))
  in
  Fmt.pf ppf "@[<v>schedule ii=%d sc=%d@," t.ii (stage_count t);
  List.iter
    (fun (v, e) ->
      Fmt.pf ppf "  n%-4d cycle %-4d (slot %-3d) %a@," v e.cycle
        (e.cycle mod t.ii) Topology.pp_loc e.loc)
    entries;
  Fmt.pf ppf "@]"
