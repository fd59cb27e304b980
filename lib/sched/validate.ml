(** Independent checker for complete schedules.

    Verifies, from scratch and without trusting any incremental state of
    the engine, that a schedule is a correct software pipeline for its
    graph and machine:

    - every node is scheduled at a legal location for its kind;
    - every dependence is satisfied:
      cycle(dst) >= cycle(src) + latency - II * distance;
    - no resource is oversubscribed at any modulo slot;
    - every [True] register operand is read from the bank in which it was
      defined (communication ops were inserted wherever needed);
    - every bank's MaxLives, plus the invariants it holds, fits its
      capacity;
    - an explicit rotating register allocation exists for every bank.

    Both register checks apply the engine's own invariant rule,
    {!Lifetimes.residents}, to the schedule itself. *)

open Hcrf_ir
open Hcrf_machine

type issue =
  | Unscheduled of int
  | Bad_location of int * Topology.loc
  | Dependence_violated of Ddg.edge
  | Resource_oversubscribed of Topology.resource * int * int (* slot, used *)
  | Bank_mismatch of Ddg.edge * Topology.bank * Topology.bank
      (** operand defined in one bank, read from another *)
  | Over_capacity of Topology.bank * int * int (* used, capacity *)
  | Allocation_failed of Topology.bank

let pp_issue ppf = function
  | Unscheduled v -> Fmt.pf ppf "node %d not scheduled" v
  | Bad_location (v, loc) ->
    Fmt.pf ppf "node %d at illegal location %a" v Topology.pp_loc loc
  | Dependence_violated e ->
    Fmt.pf ppf "dependence %d->%d (%a,d%d) violated" e.src e.dst Dep.pp
      e.dep e.distance
  | Resource_oversubscribed (r, s, used) ->
    Fmt.pf ppf "resource %a oversubscribed at slot %d (%d reserved)"
      Topology.pp_resource r s used
  | Bank_mismatch (e, db, rb) ->
    Fmt.pf ppf "operand %d->%d defined in bank %a, read from bank %a" e.src
      e.dst Topology.pp_bank db Topology.pp_bank rb
  | Over_capacity (b, used, cap) ->
    Fmt.pf ppf "bank %a: %d live > %d registers" Topology.pp_bank b used cap
  | Allocation_failed b ->
    Fmt.pf ppf "bank %a: rotating allocation failed" Topology.pp_bank b

(** [check s g] returns all problems found ([] for a valid schedule). *)
let check (s : Schedule.t) (g : Ddg.t) : issue list =
  let config = s.Schedule.config in
  let ii = Schedule.ii s in
  let issues = ref [] in
  let add i = issues := i :: !issues in
  (* scheduling completeness and location legality *)
  Ddg.iter_nodes g (fun n ->
      match Schedule.entry s n.id with
      | None -> add (Unscheduled n.id)
      | Some e ->
        let legal = Topology.exec_locs config n.kind in
        if not (List.exists (Topology.equal_loc e.loc) legal) then
          add (Bad_location (n.id, e.loc)));
  (* dependences *)
  List.iter
    (fun (e : Ddg.edge) ->
      match (Schedule.entry s e.src, Schedule.entry s e.dst) with
      | Some a, Some b ->
        let l = Latency.of_edge s.Schedule.lat g e in
        if b.cycle < a.cycle + l - (ii * e.distance) then
          add (Dependence_violated e)
      | None, _ | _, None -> ())
    (Ddg.edges g);
  (* resources: rebuild occupancy from scratch *)
  let occ : (Topology.resource * int, int) Hashtbl.t = Hashtbl.create 64 in
  Ddg.iter_nodes g (fun n ->
      match Schedule.entry s n.id with
      | None -> ()
      | Some e ->
        List.iter
          (fun (r, dur) ->
            for k = 0 to min dur ii - 1 do
              let slot = (((e.cycle + k) mod ii) + ii) mod ii in
              let key = (r, slot) in
              Hashtbl.replace occ key
                (1 + Option.value ~default:0 (Hashtbl.find_opt occ key))
            done)
          (Schedule.uses_of s g n.id ~loc:e.loc));
  Hashtbl.iter
    (fun (r, slot) count ->
      if not (Cap.fits count (Topology.units config r)) then
        add (Resource_oversubscribed (r, slot, count)))
    occ;
  (* operand banks *)
  Ddg.iter_nodes g (fun n ->
      List.iter
        (fun (e : Ddg.edge) ->
          if
            Dep.equal e.dep Dep.True
            && Op.defines_value (Ddg.kind g e.src)
          then
            match (Schedule.entry s e.src, Schedule.entry s e.dst) with
            | Some a, Some b -> (
              let db = Topology.def_bank config (Ddg.kind g e.src) a.loc in
              match (db, Ddg.kind g e.dst) with
              | Some (Topology.Local _), Op.Move ->
                (* a Move reads whichever local bank its producer is in;
                   its port reservations are derived from that bank *)
                ()
              | Some db, dk ->
                let rb = Topology.read_bank config dk b.loc in
                if not (Topology.equal_bank db rb) then
                  add (Bank_mismatch (e, db, rb))
              | None, _ -> ())
            | None, _ | _, None -> ())
        n.preds);
  (* register pressure and allocation *)
  let lts = Lifetimes.of_schedule s g in
  List.iter
    (fun bank ->
      let used =
        Lifetimes.pressure ~ii ~bank lts
        + Lifetimes.residents config g ~loc_of:(Schedule.placed_loc s) bank
      in
      match Topology.bank_capacity config bank with
      | Cap.Inf -> ()
      | Cap.Finite cap ->
        if used > cap then add (Over_capacity (bank, used, cap)))
    (Topology.all_banks config);
  (match Regalloc.allocate s g with
  | Ok _ -> ()
  | Error b -> add (Allocation_failed b));
  List.rev !issues
