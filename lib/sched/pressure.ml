(** Incrementally maintained per-bank register requirements (MaxLives).

    {!Lifetimes.of_schedule} + {!Lifetimes.pressure} recompute every
    lifetime from scratch; the engine needs the requirement after every
    single placement, which made the check quadratic in the loop size.
    This tracker keeps, for every bank, the per-modulo-slot count of
    simultaneously live values — the [req] array the reference builds,
    held as a per-bank count of whole-II laps (live at every slot) plus
    per-slot remainders — and updates it by *deltas*: when a node's
    lifetime may have changed (it or a consumer was placed or ejected,
    or the graph was rewired under it), the node is marked dirty, and
    the next query subtracts its previously applied contribution and
    re-applies the fresh one, unless the lifetime came out unchanged.

    The invariant, checked by QCheck against the reference over random
    place/eject traces: after [flush], laps plus remainders equal the
    array {!Lifetimes.pressure} would build from {!Lifetimes.of_schedule},
    bank by bank and slot by slot, and {!lifetimes} returns exactly the
    reference's lifetime list (same records, same increasing-definition
    order — the spill heuristic breaks ties by list position, so order
    is part of the contract).

    Dirtiness sources (the engine wires these up):
    - [mark v] from the engine's place/unplace wrappers, for the node
      itself and its operand producers (placing a consumer extends the
      producer's lifetime);
    - [mark e.src] from the {!Ddg} edge watcher on every edge insertion
      and removal (graph surgery changes consumer sets). *)

open Hcrf_ir

type t = {
  sched : Schedule.t;
  g : Ddg.t;
  ii : int;
  req : int array;
      (* bank * ii + slot -> live values, less the bank's [laps] *)
  laps : int array;
      (* bank -> whole-II laps of its lifetimes: live at every slot *)
  peak : int array;           (* bank -> max of its [req] row, -1 = stale *)
  mutable c_bank : int array; (* id -> applied bank index, -1 = none *)
  mutable c_start : int array;
  mutable c_stop : int array;
  mutable cap : int;
  mutable dirty : int array;  (* stack of marked ids *)
  mutable ndirty : int;
  mutable in_dirty : Bytes.t;
  arena : Arena.t option;  (* keeps grown columns for the next attempt *)
}

(* Arena slot ids (see {!Arena}). *)
let slot_req = 2
let slot_bank = 3
let slot_start = 4
let slot_stop = 5

let create ?arena (sched : Schedule.t) (g : Ddg.t) =
  let ii = Schedule.ii sched in
  let banks = Topology.bank_codes sched.Schedule.config in
  let cells = banks * ii in
  let cap = 256 in
  let req, c_bank, c_start, c_stop =
    match arena with
    | Some a ->
      ( Arena.ints a ~id:slot_req ~fill:0 cells,
        Arena.ints a ~id:slot_bank ~fill:(-1) cap,
        Arena.ints a ~id:slot_start ~fill:0 cap,
        Arena.ints a ~id:slot_stop ~fill:0 cap )
    | None ->
      ( Array.make cells 0, Array.make cap (-1), Array.make cap 0,
        Array.make cap 0 )
  in
  { sched; g; ii; req; laps = Array.make banks 0;
    peak = Array.make banks (-1);
    c_bank; c_start; c_stop; cap;
    dirty = Array.make 64 0; ndirty = 0; in_dirty = Bytes.make cap '\000';
    arena }

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
  t.c_bank <- extend t.c_bank (-1) slot_bank;
  t.c_start <- extend t.c_start 0 slot_start;
  t.c_stop <- extend t.c_stop 0 slot_stop;
  let b = Bytes.make cap' '\000' in
  Bytes.blit t.in_dirty 0 b 0 t.cap;
  t.in_dirty <- b;
  t.cap <- cap'

(** Mark [v]'s lifetime as possibly changed; cheap and idempotent. *)
let mark t v =
  if v >= t.cap then grow t v;
  if Bytes.get t.in_dirty v = '\000' then begin
    Bytes.set t.in_dirty v '\001';
    if t.ndirty = Array.length t.dirty then begin
      let d = Array.make (2 * t.ndirty) 0 in
      Array.blit t.dirty 0 d 0 t.ndirty;
      t.dirty <- d
    end;
    t.dirty.(t.ndirty) <- v;
    t.ndirty <- t.ndirty + 1
  end

(* Add [sign] copies of the lifetime [start, stop) in bank row [b] to
   the slot counts — the slot arithmetic of [Lifetimes.pressure], with
   the whole-II laps, which raise every slot alike, kept in [laps]: only
   the [span mod II] remainder touches the row, and a lifetime of whole
   laps leaves its peak as it was. *)
let apply t ~b ~start ~stop sign =
  let sp = stop - start in
  if sp > 0 then begin
    let full = sp / t.ii and rem = sp mod t.ii in
    t.laps.(b) <- t.laps.(b) + (sign * full);
    if rem > 0 then begin
      t.peak.(b) <- -1;
      let base = b * t.ii in
      let slot = ref (((start mod t.ii) + t.ii) mod t.ii) in
      for _ = 1 to rem do
        t.req.(base + !slot) <- t.req.(base + !slot) + sign;
        incr slot;
        if !slot = t.ii then slot := 0
      done
    end
  end

(* The last cycle the scheduled consumers of a value born at [birth]
   read it. *)
let rec last_use t acc = function
  | [] -> acc
  | (edge : Ddg.edge) :: tl ->
    last_use t
      (if Schedule.is_scheduled t.sched edge.dst then
         max acc (Schedule.cycle_of t.sched edge.dst + (t.ii * edge.distance))
       else acc)
      tl

(* Withdraw [v]'s applied lifetime, if any. *)
let retract t v =
  match t.c_bank.(v) with
  | -1 -> ()
  | b ->
    apply t ~b ~start:t.c_start.(v) ~stop:t.c_stop.(v) (-1);
    t.c_bank.(v) <- -1

(* A dirty node whose (bank, start, stop) came out as applied is
   skipped: most marks are a neighbour's placement that did not move
   this lifetime. *)
let flush t =
  for i = 0 to t.ndirty - 1 do
    let v = t.dirty.(i) in
    Bytes.set t.in_dirty v '\000';
    if
      Ddg.mem t.g v
      && Op.defines_value (Ddg.kind t.g v)
      && Schedule.is_scheduled t.sched v
    then begin
      let kind = Ddg.kind t.g v in
      (* the schedule fixed the definition bank when it placed [v] *)
      let b = t.sched.Schedule.e_bank.(v) in
      assert (b >= 0);
      let birth =
        Schedule.cycle_of t.sched v
        + Latency.of_def t.sched.Schedule.lat ~id:v ~kind
      in
      let stop = last_use t birth (Ddg.consumers t.g v) in
      if not (t.c_bank.(v) = b && t.c_start.(v) = birth && t.c_stop.(v) = stop)
      then begin
        retract t v;
        t.c_bank.(v) <- b;
        t.c_start.(v) <- birth;
        t.c_stop.(v) <- stop;
        apply t ~b ~start:birth ~stop 1
      end
    end
    else retract t v
  done;
  t.ndirty <- 0

(** MaxLives of [bank]: [Lifetimes.pressure ~ii ~bank
    (Lifetimes.of_schedule sched g)]. *)
let pressure t ~bank =
  flush t;
  let b = Topology.bank_code t.sched.Schedule.config bank in
  if t.peak.(b) < 0 then begin
    let base = b * t.ii in
    let m = ref 0 in
    for k = 0 to t.ii - 1 do
      if t.req.(base + k) > !m then m := t.req.(base + k)
    done;
    t.peak.(b) <- !m
  end;
  t.laps.(b) + t.peak.(b)

(** The current lifetime list, identical (records and order) to
    [Lifetimes.of_schedule sched g]. *)
let lifetimes t =
  flush t;
  let acc = ref [] in
  for v = t.cap - 1 downto 0 do
    if t.c_bank.(v) >= 0 then
      acc :=
        {
          Lifetimes.def = v;
          bank = Topology.bank_of_code t.sched.Schedule.config t.c_bank.(v);
          start = t.c_start.(v);
          stop = t.c_stop.(v);
        }
        :: !acc
  done;
  !acc
