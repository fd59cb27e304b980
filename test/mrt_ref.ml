(** Reference modulo reservation table (pre-flat implementation).

    This is the original association-based MRT, kept verbatim as the
    executable specification of {!Hcrf_sched.Mrt}: the flat,
    data-oriented table used by the engine must be observationally
    equivalent on every operation sequence ([can_place]/[place]/
    [remove]/[conflicts]/[occupancy]), and the QCheck harness in
    [test_sched.ml] drives both against random traces to prove it.  Keep
    the two in sync: a semantic change here must be mirrored in
    {!Hcrf_sched.Mrt} and vice versa. *)

open Hcrf_machine
open Hcrf_sched

type slot_state = { mutable count : int; mutable occupants : int list }

type t = {
  ii : int;
  config : Config.t;
  tables : (Topology.resource, slot_state array) Hashtbl.t;
  placed : (int, (Topology.resource * int * int) list) Hashtbl.t;
      (** node -> (resource, issue cycle, duration) list *)
}

let create (config : Config.t) ~ii =
  if ii < 1 then invalid_arg "Mrt_ref.create: ii < 1";
  let tables = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace tables r
        (Array.init ii (fun _ -> { count = 0; occupants = [] })))
    (Topology.all_resources config);
  { ii; config; tables; placed = Hashtbl.create 64 }

let slots t r =
  match Hashtbl.find_opt t.tables r with
  | Some a -> a
  | None ->
    Fmt.invalid_arg "Mrt_ref: resource %a not in configuration"
      Topology.pp_resource r

(* Occupied modulo slots of a reservation of [dur] cycles at [cycle]. *)
let reserved_slots t ~cycle ~dur =
  let dur = min dur t.ii in
  List.init dur (fun k -> ((cycle + k) mod t.ii + t.ii) mod t.ii)

(* Entries on the same resource (a two-operand read of one constrained
   bank) must fit *jointly*: group them per resource, longest first, and
   annotate each with its rank in the group.  Same-cycle reservations
   are nested intervals, so checking entry k's window against
   count + k is the aggregate per-slot demand test.  {!Mrt} compiles
   the identical ranking. *)
let ranked (uses : (Topology.resource * int) list) =
  let sorted =
    List.stable_sort
      (fun (r1, d1) (r2, d2) ->
        if r1 <> r2 then compare r1 r2 else compare d2 d1)
      uses
  in
  let rec annotate prev need = function
    | [] -> []
    | (r, d) :: tl ->
      let need = if prev = Some r then need + 1 else 1 in
      (r, d, need) :: annotate (Some r) need tl
  in
  annotate None 0 sorted

let fits_one t r ~cycle ~dur ~need =
  let a = slots t r in
  let u = Topology.units t.config r in
  List.for_all (fun s -> Cap.fits (a.(s).count + need) u)
    (reserved_slots t ~cycle ~dur)

(** Can [uses] all be reserved at [cycle]? *)
let can_place t (uses : (Topology.resource * int) list) ~cycle =
  List.for_all (fun (r, dur, need) -> fits_one t r ~cycle ~dur ~need)
    (ranked uses)

(** Reserve; the node must not already be placed. *)
let place t ~node (uses : (Topology.resource * int) list) ~cycle =
  if Hashtbl.mem t.placed node then
    Fmt.invalid_arg "Mrt_ref.place: node %d already placed" node;
  List.iter
    (fun (r, dur) ->
      let a = slots t r in
      List.iter
        (fun s ->
          a.(s).count <- a.(s).count + 1;
          a.(s).occupants <- node :: a.(s).occupants)
        (reserved_slots t ~cycle ~dur))
    uses;
  Hashtbl.replace t.placed node
    (List.map (fun (r, dur) -> (r, cycle, dur)) uses)

let is_placed t node = Hashtbl.mem t.placed node

let remove t ~node =
  match Hashtbl.find_opt t.placed node with
  | None -> ()
  | Some uses ->
    List.iter
      (fun (r, cycle, dur) ->
        let a = slots t r in
        List.iter
          (fun s ->
            a.(s).count <- a.(s).count - 1;
            a.(s).occupants <-
              (let removed = ref false in
               List.filter
                 (fun o ->
                   if o = node && not !removed then begin
                     removed := true;
                     false
                   end
                   else true)
                 a.(s).occupants))
          (reserved_slots t ~cycle ~dur))
      uses;
    Hashtbl.remove t.placed node

(** Nodes whose ejection would make room for [uses] at [cycle]: for every
    resource slot that is full, the most recently placed occupant. *)
let conflicts t (uses : (Topology.resource * int) list) ~cycle =
  List.concat_map
    (fun (r, dur, need) ->
      let a = slots t r in
      let u = Topology.units t.config r in
      List.filter_map
        (fun s ->
          if Cap.fits (a.(s).count + need) u then None
          else
            match a.(s).occupants with
            | o :: _ -> Some o
            | [] -> None)
        (reserved_slots t ~cycle ~dur))
    (ranked uses)
  |> List.sort_uniq compare

(** Occupancy count of resource [r] at modulo slot [s] (for tests and
    statistics). *)
let occupancy t r ~slot = (slots t r).(slot).count
