(** Modulo schedules: the product and the engine's working state.

    The product ({!t}) is what scheduling hands on: flat per-node int
    columns (issue cycle with a [min_int] sentinel, location code,
    definition bank code) and a per-bank count of scheduled
    definitions.  Locations and banks decode to values built once per
    schedule, so [loc_of], [cycle_of] and [def_bank] allocate nothing.

    The working state ({!Work}) adds what only the engine reads while it
    searches: the modulo reservation table with its occupant stacks, a
    cache of precompiled reservation vectors keyed by (op kind,
    location, Move source bank), and the {!Arena} its flat buffers come
    from.  A finished attempt cuts an exact-size, arena-free product
    from it ({!Work.product}); the working tables never leave the
    engine. *)

open Hcrf_ir
open Hcrf_machine

type entry = { cycle : int; loc : Topology.loc }

type t = {
  config : Config.t;
  ii : int;
  lat : Latency.t;
  mutable e_cycle : int array;  (* id -> issue cycle; min_int = unscheduled *)
  mutable e_loc : int array;    (* id -> Topology.loc_code *)
  mutable e_bank : int array;   (* id -> def-bank code, -1 when none *)
  mutable cap : int;            (* live length of the entry columns *)
  bank_defs : int array;        (* bank code -> scheduled defs there *)
  locs : Topology.loc array;    (* location code + 1 -> location *)
  banks : Topology.bank option array;  (* bank code -> [Some bank] *)
}

let unscheduled = min_int

let kind_tag = function
  | Op.Fadd -> 0 | Op.Fmul -> 1 | Op.Fdiv -> 2 | Op.Fsqrt -> 3
  | Op.Load -> 4 | Op.Store -> 5 | Op.Move -> 6 | Op.Load_r -> 7
  | Op.Store_r -> 8 | Op.Spill_load -> 9 | Op.Spill_store -> 10

let n_kinds = List.length Op.all_kinds

(* A schedule over the given columns, [cap] cells of each live. *)
let make ?(lat : Latency.t option) (config : Config.t) ~ii ~cap
    (e_cycle, e_loc, e_bank) =
  let lat = match lat with Some l -> l | None -> Latency.make config in
  let banks = Topology.bank_codes config in
  { config; ii; lat; e_cycle; e_loc; e_bank; cap;
    bank_defs = Array.make banks 0;
    locs =
      Array.init (Config.clusters config + 1) (fun i ->
          Topology.loc_of_code (i - 1));
    banks = Array.init banks (fun i -> Some (Topology.bank_of_code config i)) }

let create ?lat config ~ii = make ?lat config ~ii ~cap:0 ([||], [||], [||])

let of_columns ?lat config ~ii ~cycle ~loc ~bank =
  let t = make ?lat config ~ii ~cap:(Array.length cycle) (cycle, loc, bank) in
  Array.iter
    (fun b -> if b >= 0 then t.bank_defs.(b) <- t.bank_defs.(b) + 1)
    bank;
  t

(* [a]'s first [keep] cells in a fresh array of [len], the rest [fill]. *)
let resize a ~keep ~len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 keep;
  a'

let columns t ~len =
  let keep = min t.cap len in
  ( resize t.e_cycle ~keep ~len unscheduled,
    resize t.e_loc ~keep ~len (-1),
    resize t.e_bank ~keep ~len (-1) )

let ii t = t.ii
let is_scheduled t v = v < t.cap && v >= 0 && t.e_cycle.(v) <> unscheduled

let not_scheduled v = Fmt.invalid_arg "Schedule: node %d not scheduled" v

let cycle_of t v = if is_scheduled t v then t.e_cycle.(v) else not_scheduled v

let loc_of t v =
  if is_scheduled t v then t.locs.(t.e_loc.(v) + 1) else not_scheduled v

let placed_loc t v = if is_scheduled t v then Some (loc_of t v) else None

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

(** Bank holding the value defined by scheduled node [v], if any. *)
let def_bank t (_g : Ddg.t) v =
  if not (is_scheduled t v) then None
  else match t.e_bank.(v) with -1 -> None | i -> t.banks.(i)

(** Scheduled definitions currently living in [bank] (for the cluster
    selection and down-copy heuristics). *)
let bank_def_count t bank = t.bank_defs.(Topology.bank_code t.config bank)

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

(* Extend the columns to cover id [v]. *)
let grow t v =
  let len = max (2 * t.cap) (v + 1) in
  let e_cycle, e_loc, e_bank = columns t ~len in
  t.e_cycle <- e_cycle;
  t.e_loc <- e_loc;
  t.e_bank <- e_bank;
  t.cap <- len

(* Record [v] at ([cycle], [loc]); the columns must cover [v]. *)
let record t g v ~cycle ~loc =
  if is_scheduled t v then Fmt.invalid_arg "Schedule.place: %d placed" v;
  t.e_cycle.(v) <- cycle;
  t.e_loc.(v) <- Topology.loc_code loc;
  t.e_bank.(v) <-
    (match Topology.def_bank t.config (Ddg.kind g v) loc with
    | None -> -1
    | Some b ->
      let i = Topology.bank_code t.config b in
      t.bank_defs.(i) <- t.bank_defs.(i) + 1;
      i)

let place t g v ~cycle ~loc =
  if v >= t.cap then grow t v;
  record t g v ~cycle ~loc

let unplace t v =
  if is_scheduled t v then begin
    t.e_cycle.(v) <- unscheduled;
    (match t.e_bank.(v) with
    | -1 -> ()
    | i -> t.bank_defs.(i) <- t.bank_defs.(i) - 1);
    t.e_bank.(v) <- -1
  end

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

(** Number of stages of II cycles in the kernel. *)
let stage_count t =
  let m = ref 0 in
  for v = 0 to t.cap - 1 do
    if t.e_cycle.(v) > !m then m := t.e_cycle.(v)
  done;
  (!m / t.ii) + 1

(* Deliberate fault injection for the differential fuzzer (hcrf_check):
   [Lax_resources] makes the working state's probes ignore the
   reservation table, so the engine happily oversubscribes functional
   units and ports.  [Validate] rebuilds occupancy independently and
   must flag every such schedule; the fuzzer asserts it does.  Never set
   outside tests/campaigns. *)
type fault = Lax_resources

let fault : fault option ref = ref None

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

module Work = struct
  type schedule = t

  type t = {
    cols : schedule;  (* arena-backed; only the first [cap] cells are live *)
    mrt : Mrt.t;
    ucache : Mrt.cuses option array array;
        (* block (kind, or Move source bank) -> location -> compiled
           reservation; a block is allocated on first use *)
    arena : Arena.t option;
  }

  (* Arena slot ids for the entry columns (see {!Arena}). *)
  let slot_cycle = 7
  let slot_loc = 8
  let slot_bank = 9

  let create ?arena ?lat config ~ii =
    let cap = 256 in
    let cols =
      match arena with
      | Some a ->
        ( Arena.ints a ~id:slot_cycle ~fill:unscheduled cap,
          Arena.ints a ~id:slot_loc ~fill:(-1) cap,
          Arena.ints a ~id:slot_bank ~fill:(-1) cap )
      | None ->
        (Array.make cap unscheduled, Array.make cap (-1), Array.make cap (-1))
    in
    let cols = make ?lat config ~ii ~cap cols in
    { cols; mrt = Mrt.create ?arena config ~ii;
      ucache = Array.make (n_kinds + Topology.bank_codes config) [||]; arena }

  (* Grow the columns to cover [v], handing the grown buffers back to
     the arena. *)
  let grow w v =
    let c = w.cols in
    grow c v;
    Option.iter
      (fun a ->
        Arena.keep_ints a ~id:slot_cycle c.e_cycle;
        Arena.keep_ints a ~id:slot_loc c.e_loc;
        Arena.keep_ints a ~id:slot_bank c.e_bank)
      w.arena

  (* Reservation vector of [v] at [loc], compiled once per
     (kind, location, Move source bank) and cached in [ucache]: one
     block of locations per kind, then one per source bank for Moves
     that have one (a Move without lands in its kind's block).  Blocks
     are allocated on first use: most loops use a few kinds and no
     Moves. *)
  let prepare w (g : Ddg.t) v ~loc =
    let c = w.cols in
    let kind = Ddg.kind g v in
    let src =
      match kind with Op.Move -> move_src_bank c g v | _ -> None
    in
    let block =
      match src with
      | None -> kind_tag kind
      | Some b -> n_kinds + Topology.bank_code c.config b
    in
    let b =
      match w.ucache.(block) with
      | [||] ->
        let b = Array.make (Array.length c.locs) None in
        w.ucache.(block) <- b;
        b
      | b -> b
    in
    let l = Topology.loc_code loc + 1 in
    match b.(l) with
    | Some cu -> cu
    | None ->
      let cu = Mrt.compile w.mrt (Topology.uses c.config kind loc ~src) in
      b.(l) <- Some cu;
      cu

  let fits w cu ~cycle =
    match !fault with
    | Some Lax_resources -> true
    | None -> Mrt.can_place_c w.mrt cu ~cycle

  let fits_any w cu =
    match !fault with
    | Some Lax_resources -> true
    | None -> Mrt.can_place_any_c w.mrt cu

  let place w g v cu ~cycle ~loc =
    if v >= w.cols.cap then grow w v;
    record w.cols g v ~cycle ~loc;
    Mrt.place_c w.mrt ~node:v cu ~cycle

  let unplace w v =
    if is_scheduled w.cols v then begin
      Mrt.remove w.mrt ~node:v;
      unplace w.cols v
    end

  let conflicts w g v ~cycle ~loc =
    Mrt.conflicts_c w.mrt (prepare w g v ~loc) ~cycle

  let total_occupancy w r = Mrt.total_occupancy w.mrt r

  let product w ~next_id =
    let c = w.cols in
    let e_cycle, e_loc, e_bank = columns c ~len:next_id in
    { c with e_cycle; e_loc; e_bank; cap = next_id;
      bank_defs = Array.copy c.bank_defs }

  let columns w = w.cols
end
