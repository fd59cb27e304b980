(** Spilling: keep every finite bank's register requirement within its
    capacity by demoting values and invariants out of it.  A part of
    {!Engine}, over an {!Attempt}. *)

open Hcrf_ir
open Hcrf_machine
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event

type t = {
  mutable spilled : Bytes.t;  (* id -> value def already spilled *)
  inv_spilled : (int * int, unit) Hashtbl.t; (* (inv, bank code) *)
  mutable refills : int;
      (* cumulative budget granted back by spills; capped so a spill /
         eject / re-spill cycle over fresh node ids (which the
         [spilled] once-only marker cannot see) drains the budget
         instead of sustaining itself forever *)
}

let create () =
  { spilled = Bytes.make 64 '\000'; inv_spilled = Hashtbl.create 16;
    refills = 0 }

let is_spilled sp v =
  v < Bytes.length sp.spilled && Bytes.get sp.spilled v <> '\000'

let set_spilled sp v =
  let n = Bytes.length sp.spilled in
  if v >= n then begin
    let b = Bytes.make (max (2 * n) (v + 1)) '\000' in
    Bytes.blit sp.spilled 0 b 0 n;
    sp.spilled <- b
  end;
  Bytes.set sp.spilled v '\001'

(* Safety net: spilling must not grow the graph without bound (the paper
   controls this with the Budget; we additionally cap the graph size so
   a failing attempt is abandoned instead of thrashing). *)
let growth_cap (s : Attempt.t) = Ddg.num_nodes s.g > (8 * s.n0) + 64

(* Grant back [ratio] budget per inserted node, up to a lifetime cap per
   attempt: unbounded replenishment lets a pathological config (e.g. one
   local write port) respill fresh copies forever. *)
let refund sp (s : Attempt.t) fresh =
  let cap = 24 * s.ratio * s.n0 in
  let grant = min (s.ratio * fresh) (max 0 (cap - sp.refills)) in
  sp.refills <- sp.refills + grant;
  s.budget <- s.budget + grant

(* Out of a distributed bank of a hierarchical RF a value goes to the
   shared bank; out of any other bank, to memory. *)
let to_shared (s : Attempt.t) bank =
  match (s.config.rf, bank) with
  | Rf.Hierarchical _, Topology.Local _ -> true
  | _ -> false

(* Spill one value defined by [d] out of [bank].  For a distributed bank
   of a hierarchical RF the value is demoted to the shared bank
   (StoreR + LoadR per consumer); otherwise it goes to memory
   (Spill_store + Spill_load per consumer).  Returns the number of
   inserted nodes. *)
let spill_value sp (s : Attempt.t) ~bank d =
  let fresh = ref 0 in
  let consumers = Ddg.consumers s.g d in
  let mk kind prio_anchor =
    let n = Ddg.add_node s.g kind in
    Attempt.set_prio s n (Attempt.prio_of s prio_anchor +. 0.125);
    Attempt.push s n;
    incr fresh;
    n
  in
  let to_shared = to_shared s bank in
  let store_kind = if to_shared then Op.Store_r else Op.Spill_store in
  let load_kind = if to_shared then Op.Load_r else Op.Spill_load in
  (* The up-copy: a LoadR's value already exists in the shared bank (its
     root), so spilling it is a pure re-load; a load with no memory
     dependence can simply be re-issued (a redundant load, not a
     store/load round trip); otherwise reuse an existing copy up of the
     value, or insert one. *)
  let root =
    if to_shared then Route.shared_root s d ~db:bank
    else if Op.equal_kind (Ddg.kind s.g d) Op.Load && Ddg.operands s.g d = []
    then d
    else -1
  in
  let up =
    if root >= 0 then root
    else
      match
        List.find_opt
          (fun (e : Ddg.edge) -> Op.equal_kind (Ddg.kind s.g e.dst) store_kind)
          consumers
      with
      | Some e -> e.dst
      | None ->
        let n = mk store_kind d in
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True d n;
        n
  in
  List.iter
    (fun (e : Ddg.edge) ->
      let ck = Ddg.kind s.g e.dst in
      if e.dst <> up && not (Op.equal_kind ck store_kind) then begin
        let down = mk load_kind e.dst in
        (* a reload copy is already as short as it gets: never respill *)
        set_spilled sp down;
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True up down;
        Ddg.remove_edge s.g e;
        Ddg.add_edge s.g ~distance:e.distance ~dep:Dep.True down e.dst
      end)
    consumers;
  set_spilled sp d;
  s.st.m_value_spills <- s.st.m_value_spills + 1;
  refund sp s !fresh;
  if Tr.enabled s.trace then
    Tr.emit s.trace (Ev.Spill_insert { kind = Ev.Value; inserted = !fresh });
  !fresh

(* Demote an invariant out of [bank]: every scheduled consumer reading
   it there now reads through a LoadR (hierarchical) or a Spill_load
   (memory).  Returns the number of inserted nodes. *)
let spill_invariant sp (s : Attempt.t) ~bank (inv : Ddg.invariant) =
  let fresh = ref 0 in
  let load_kind = if to_shared s bank then Op.Load_r else Op.Spill_load in
  let consumers = inv.inv_consumers in
  let loc_of = Schedule.placed_loc s.sched in
  List.iter
    (fun c ->
      if Lifetimes.reads_from s.config s.g ~loc_of bank c then begin
        let down = Ddg.add_node s.g load_kind in
        set_spilled sp down;
        Attempt.set_prio s down (Attempt.prio_of s c -. 0.25);
        Attempt.push s down;
        Ddg.add_edge s.g ~distance:0 ~dep:Dep.True down c;
        inv.inv_consumers <-
          down :: List.filter (fun x -> x <> c) inv.inv_consumers;
        incr fresh
      end)
    consumers;
  Hashtbl.replace sp.inv_spilled
    (inv.inv_id, Topology.bank_code s.config bank) ();
  s.st.m_invariant_spills <- s.st.m_invariant_spills + 1;
  refund sp s !fresh;
  if Tr.enabled s.trace then
    Tr.emit s.trace
      (Ev.Spill_insert { kind = Ev.Invariant; inserted = !fresh });
  !fresh

let spillable_def sp (s : Attempt.t) ~bank d =
  (not (is_spilled sp d))
  &&
  match (Ddg.kind s.g d, bank) with
  | (Op.Fadd | Op.Fmul | Op.Fdiv | Op.Fsqrt | Op.Load), _ -> true
  | Op.Load_r, Topology.Local _ -> true  (* re-load from the shared copy *)
  | (Op.Store_r | Op.Spill_load), Topology.Shared -> true
  | _ -> false

(* One spill decision for an overflowing [bank]: prefer an unspilled
   invariant (it frees a whole-loop register), otherwise the value with
   the longest lifetime span. *)
let pick_and_spill sp (s : Attempt.t) ~bank lts =
  if growth_cap s then 0
  else
  let loc_of = Schedule.placed_loc s.sched in
  let inv_candidate =
    List.find_opt
      (fun (inv : Ddg.invariant) ->
        Lifetimes.resident s.config s.g ~loc_of bank inv
        && not
             (Hashtbl.mem sp.inv_spilled
                (inv.inv_id, Topology.bank_code s.config bank)))
      (Ddg.invariants s.g)
  in
  match inv_candidate with
  | Some inv -> spill_invariant sp s ~bank inv
  | None -> (
    let best =
      List.fold_left
        (fun acc (l : Lifetimes.lifetime) ->
          if
            Topology.equal_bank l.bank bank
            && Lifetimes.span l >= 2
            && spillable_def sp s ~bank l.def
          then
            match acc with
            | Some b when Lifetimes.span b >= Lifetimes.span l -> acc
            | _ -> Some l
          else acc)
        None lts
    in
    match best with
    | Some l -> spill_value sp s ~bank l.def
    | None -> 0)

(* Spill out of [bank] until [extra] more registers fit under [cap],
   for at most [guard] more rounds.  Returns the nodes inserted; sets
   [unfixable] when the bank stays over capacity with nothing left to
   spill. *)
let rec fix_bank sp (s : Attempt.t) ~bank ~cap ~ninv ~extra ~unfixable ~guard
    inserted =
  if guard <= 0 then inserted
  else
    let pressure = Pressure.pressure s.press ~bank in
    if pressure + ninv + extra <= cap then inserted
    else
      let used =
        pressure
        + Lifetimes.residents s.config s.g
            ~loc_of:(Schedule.placed_loc s.sched) bank
      in
      if used + extra <= cap then inserted
      else
        match pick_and_spill sp s ~bank (Pressure.lifetimes s.press) with
        | 0 ->
          Logs.debug (fun m ->
              m "unfixable: bank %a used=%d cap=%d ii=%d nodes=%d"
                Topology.pp_bank bank used cap (Schedule.ii s.sched)
                (Ddg.num_nodes s.g));
          unfixable := true;
          inserted
        | n ->
          fix_bank sp s ~bank ~cap ~ninv ~extra ~unfixable ~guard:(guard - 1)
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
let check ?force_bank sp (s : Attempt.t) =
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
      !inserted
      + fix_bank sp s ~bank ~cap ~ninv ~extra ~unfixable ~guard:63 0
  done;
  if !unfixable then `Unfixable else `Inserted !inserted
