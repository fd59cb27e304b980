(** Modulo reservation table — flat, data-oriented implementation.

    Tracks, for every hardware resource and every slot in [0, II), how
    many units are occupied and by which nodes.  Non-pipelined operations
    occupy their resource for several consecutive cycles (all taken modulo
    II).  Occupancy is count-based: the table checks that no slot exceeds
    the unit count, which is the standard (and, for interval-shaped
    reservations, safe in practice) feasibility test.

    Layout: resources are encoded as small integer row codes
    ([5 * cluster + tag]); one flat [counts] array of [rows * II] ints
    answers [can_place_c] with pure array probes (no hashing, no list
    allocation), and per-(row, slot) occupant stacks — int arrays with a
    separate length column — support the (rare) force-and-eject path.
    Observational equivalence with the original association-based table
    (test/mrt_ref.ml) is asserted by QCheck over random operation traces;
    the eject-victim choice of [conflicts_c] (most recently placed occupant
    first) and the duplicate-aware [remove] follow the reference
    semantics exactly.

    [uses] lists are compiled ({!compile}) into int-coded arrays once
    per (op kind, location, source bank) and probed at many cycles
    without touching the original list — the scheduler's inner loop. *)

open Hcrf_machine

(* Row code of a resource.  Legacy rows keep their historical codes
   (5 * cluster + tag; [Bus] has no cluster and takes the otherwise-
   unused tag 4 of cluster 0); the generalized rows are appended after
   them so tables of legacy configurations are laid out identically.
   With [x] clusters and bank codes b in 0..x (locals, shared):
   [Rd b -> 5x+5+2b], [Wr b -> 5x+5+2b+1] — 7x+7 rows in all. *)
let code ~x = function
  | Topology.Fu i -> 5 * i
  | Topology.Mem i -> (5 * i) + 1
  | Topology.Lp i -> (5 * i) + 2
  | Topology.Sp i -> (5 * i) + 3
  | Topology.Bus -> 4
  | Topology.Rd b -> (5 * x) + 5 + (2 * b)
  | Topology.Wr b -> (5 * x) + 5 + (2 * b) + 1

type t = {
  ii : int;
  config : Config.t;
  x : int;                 (* clusters, for the row coding *)
  rows : int;
  valid : bool array;      (* row -> resource exists in the configuration *)
  units : int array;       (* row -> unit count (max_int encodes Cap.Inf) *)
  counts : int array;      (* row * ii + slot -> occupied units *)
  row_total : int array;   (* row -> occupied units summed over slots *)
  row_sat : int array;
      (* row -> slots whose count has reached the unit count; a row of
         zero units starts saturated at every slot *)
  occ : int array array;   (* row * ii + slot -> occupant stack *)
  occ_len : int array;     (* live length of each occupant stack *)
  mutable placed_cu : cuses array;
      (* node -> the reservation vector it holds, [unplaced] if none *)
  mutable placed_cycle : int array;  (* node -> its issue cycle *)
}

(* Precompiled uses: row, duration and rank within its row group per
   entry (see {!compile}). *)
and cuses = { urows : int array; udurs : int array; uneeds : int array }

let unplaced = { urows = [||]; udurs = [||]; uneeds = [||] }

(* Arena slot ids (see {!Arena}). *)
let slot_counts = 0
let slot_occ_len = 1
let slot_stacks = 0

let create ?arena (config : Config.t) ~ii =
  if ii < 1 then invalid_arg "Mrt.create: ii < 1";
  let x = Config.clusters config in
  let rows = (7 * x) + 7 in
  let valid = Array.make rows false in
  let units = Array.make rows 0 in
  List.iter
    (fun r ->
      let c = code ~x r in
      valid.(c) <- true;
      units.(c) <-
        (match Topology.units config r with
        | Cap.Inf -> max_int
        | Cap.Finite n -> n))
    (Topology.all_resources config);
  let cells = rows * ii in
  let counts, occ, occ_len =
    match arena with
    | Some a ->
      ( Arena.ints a ~id:slot_counts ~fill:0 cells,
        Arena.stacks a ~id:slot_stacks cells,
        Arena.ints a ~id:slot_occ_len ~fill:0 cells )
    | None -> (Array.make cells 0, Array.make cells [||], Array.make cells 0)
  in
  { ii; config; x; rows; valid; units; counts;
    row_total = Array.make rows 0;
    row_sat = Array.map (fun u -> if u = 0 then ii else 0) units;
    occ; occ_len;
    placed_cu = Array.make 64 unplaced; placed_cycle = Array.make 64 0 }

let bad_resource r =
  Fmt.invalid_arg "Mrt: resource %a not in configuration"
    Topology.pp_resource r

let row t r =
  let c = code ~x:t.x r in
  if c >= t.rows || not t.valid.(c) then bad_resource r;
  c

(* Modulo slot of [cycle + k]; cycles may be negative. *)
let smod t c =
  let m = c mod t.ii in
  if m < 0 then m + t.ii else m

(* ------------------------------------------------------------------ *)
(* Precompiled uses                                                    *)

(* Entries touching the same row (a two-operand read of one constrained
   bank) must fit *jointly*: compilation groups them per row, longest
   reservation first, and annotates each with its rank in the group.
   All same-cycle reservations are nested intervals, so checking entry
   k's window against count + k is exactly the aggregate per-slot demand
   test; a singleton entry keeps need = 1 and the historical probe. *)
let compile t (uses : (Topology.resource * int) list) =
  let ranked =
    List.stable_sort
      (fun (r1, d1) (r2, d2) ->
        if r1 <> r2 then compare r1 r2 else compare d2 d1)
      (List.map (fun (r, dur) -> (row t r, dur)) uses)
  in
  let n = List.length ranked in
  let urows = Array.make n 0
  and udurs = Array.make n 0
  and uneeds = Array.make n 0 in
  let rec fill i prev need = function
    | [] -> ()
    | (r, d) :: tl ->
      let need = if r = prev then need + 1 else 1 in
      urows.(i) <- r;
      udurs.(i) <- d;
      uneeds.(i) <- need;
      fill (i + 1) r need tl
  in
  fill 0 (-1) 0 ranked;
  { urows; udurs; uneeds }

(* The slots of a reservation of [dur] cycles from [cycle] are
   [smod cycle] onwards, wrapping at II: one division per reservation,
   not one per slot. *)
let fits_row t ~r ~cycle ~dur ~need =
  let u = t.units.(r) in
  if u = max_int then true
  else begin
    let dur = if dur > t.ii then t.ii else dur in
    let base = r * t.ii in
    let ok = ref true in
    let k = ref 0 and slot = ref (smod t cycle) in
    while !ok && !k < dur do
      if t.counts.(base + !slot) + need > u then ok := false;
      incr k;
      incr slot;
      if !slot = t.ii then slot := 0
    done;
    !ok
  end

let can_place_c t (u : cuses) ~cycle =
  let ok = ref true in
  let i = ref 0 in
  let n = Array.length u.urows in
  while !ok && !i < n do
    if
      not
        (fits_row t ~r:u.urows.(!i) ~cycle ~dur:u.udurs.(!i)
           ~need:u.uneeds.(!i))
    then ok := false;
    incr i
  done;
  !ok

(* [can_place_c] depends on the cycle only modulo II, so the slots
   [0, II) are every candidate there is.  A vector of one single-cycle
   entry (need 1) fits somewhere iff its row has an unsaturated slot. *)
let can_place_any_c t (u : cuses) =
  if Array.length u.urows = 1 && u.udurs.(0) = 1 then
    t.row_sat.(u.urows.(0)) < t.ii
  else begin
    let c = ref 0 in
    while !c < t.ii && not (can_place_c t u ~cycle:!c) do incr c done;
    !c < t.ii
  end

(* An empty table answers alike at every II and cycle: an entry fails
   only when its rank in its row group exceeds the unit count. *)
let fits_empty config =
  let t = create config ~ii:1 in
  fun uses -> can_place_c t (compile t uses) ~cycle:0

(* Occupant stack push/pop-one for cell [idx]. *)
let push_occ t idx node =
  let st = t.occ.(idx) in
  let len = t.occ_len.(idx) in
  let st =
    if len < Array.length st then st
    else begin
      let st' = Array.make (max 4 (2 * Array.length st)) 0 in
      Array.blit st 0 st' 0 len;
      t.occ.(idx) <- st';
      st'
    end
  in
  st.(len) <- node;
  t.occ_len.(idx) <- len + 1

(* Remove the most recently pushed occurrence of [node] (= the first
   occurrence from the head of the reference implementation's list). *)
let remove_occ t idx node =
  let st = t.occ.(idx) in
  let len = t.occ_len.(idx) in
  let i = ref (len - 1) in
  while !i >= 0 && st.(!i) <> node do decr i done;
  if !i >= 0 then begin
    for j = !i to len - 2 do
      st.(j) <- st.(j + 1)
    done;
    t.occ_len.(idx) <- len - 1
  end

let is_placed t node =
  node >= 0 && node < Array.length t.placed_cu
  && t.placed_cu.(node) != unplaced

(* Room in the per-node placement columns for [node]. *)
let reserve_node t node =
  if node < 0 then Fmt.invalid_arg "Mrt.place: negative node %d" node;
  let cap = Array.length t.placed_cu in
  if node >= cap then begin
    let cap' = max (2 * cap) (node + 1) in
    let cu = Array.make cap' unplaced and cy = Array.make cap' 0 in
    Array.blit t.placed_cu 0 cu 0 cap;
    Array.blit t.placed_cycle 0 cy 0 cap;
    t.placed_cu <- cu;
    t.placed_cycle <- cy
  end

let place_c t ~node (u : cuses) ~cycle =
  if is_placed t node then
    Fmt.invalid_arg "Mrt.place: node %d already placed" node;
  reserve_node t node;
  for i = 0 to Array.length u.urows - 1 do
    let r = u.urows.(i) in
    let base = r * t.ii in
    let d = if u.udurs.(i) > t.ii then t.ii else u.udurs.(i) in
    let slot = ref (smod t cycle) in
    for _ = 0 to d - 1 do
      let idx = base + !slot in
      t.counts.(idx) <- t.counts.(idx) + 1;
      if t.counts.(idx) = t.units.(r) then t.row_sat.(r) <- t.row_sat.(r) + 1;
      push_occ t idx node;
      incr slot;
      if !slot = t.ii then slot := 0
    done;
    t.row_total.(r) <- t.row_total.(r) + d
  done;
  t.placed_cu.(node) <- u;
  t.placed_cycle.(node) <- cycle

let remove t ~node =
  if is_placed t node then begin
    let u = t.placed_cu.(node) and cycle = t.placed_cycle.(node) in
    for i = 0 to Array.length u.urows - 1 do
      let r = u.urows.(i) in
      let base = r * t.ii in
      let d = if u.udurs.(i) > t.ii then t.ii else u.udurs.(i) in
      let slot = ref (smod t cycle) in
      for _ = 0 to d - 1 do
        let idx = base + !slot in
        t.counts.(idx) <- t.counts.(idx) - 1;
        if t.counts.(idx) = t.units.(r) - 1 then
          t.row_sat.(r) <- t.row_sat.(r) - 1;
        remove_occ t idx node;
        incr slot;
        if !slot = t.ii then slot := 0
      done;
      t.row_total.(r) <- t.row_total.(r) - d
    done;
    t.placed_cu.(node) <- unplaced
  end

let conflicts_c t (u : cuses) ~cycle =
  let acc = ref [] in
  let n = Array.length u.urows in
  for i = n - 1 downto 0 do
    let r = u.urows.(i) and dur = u.udurs.(i) and need = u.uneeds.(i) in
    let un = t.units.(r) in
    if un < max_int then begin
      let base = r * t.ii in
      let d = if dur > t.ii then t.ii else dur in
      let slot = ref (smod t cycle) in
      for _ = 0 to d - 1 do
        let idx = base + !slot in
        if t.counts.(idx) + need > un && t.occ_len.(idx) > 0 then
          acc := t.occ.(idx).(t.occ_len.(idx) - 1) :: !acc;
        incr slot;
        if !slot = t.ii then slot := 0
      done
    end
  done;
  List.sort_uniq Int.compare !acc

(** Occupancy count of resource [r] at modulo slot [s] (for tests and
    statistics). *)
let occupancy t r ~slot = t.counts.((row t r * t.ii) + slot)

(** Occupancy of [r] summed over every slot, kept up to date by
    [place_c]/[remove]. *)
let total_occupancy t r = t.row_total.(row t r)

(** Slots of [r] whose count has reached its unit count. *)
let saturated t r = t.row_sat.(row t r)
