(** The iterative modulo-scheduling engine (MIRS family).

    One engine drives every register-file organization: the
    {!Topology} of the configuration decides where operations may
    execute, which bank holds each value, and which communication
    operations connect banks.  The engine is the algorithm of Figure 5
    of the paper, one decision per module over one {!Attempt} state:

    - nodes are scheduled one at a time in HRMS priority order; when no
      slot fits, the node is forced and the conflicting or
      dependence-violated nodes are ejected back into the priority
      list, together with the now-useless communication operations
      that were inserted for them ({!Attempt});
    - cluster selection minimizes new communication, then slot
      availability, then balances FU and register-bank use
      ({!Select});
    - the communication operations a placement needs (Move for
      clustered RFs, StoreR/LoadR for hierarchical ones) are inserted
      into the graph — reusing existing copies of the same value when
      possible — and scheduled before the node itself ({!Route});
    - after every placement the per-bank register requirement
      (MaxLives) is compared against the bank capacities; overflowing
      banks get spill code — StoreR/LoadR between a distributed bank
      and the shared bank, Spill_store/Spill_load between a bank and
      memory — and loop invariants can be demoted from a cluster to
      the shared bank (or memory) ({!Spill});
    - a Budget of [budget_ratio * |V|] attempts (replenished by
      [budget_ratio] for every inserted node, up to a lifetime cap per
      attempt so replenishment cannot sustain a spill cycle forever)
      bounds the iterative process; when exhausted the attempt is
      discarded and the whole process restarts with II + 1.  That
      loop, the end-of-attempt repairs, the II search and its one
      escalation are here. *)

open Hcrf_ir
open Hcrf_machine
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event
module Work = Schedule.Work

type options = {
  budget_ratio : int;
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
  { budget_ratio = 6; load_override = (fun _ -> None); backtracking = true;
    ordering = `Hrms }

type stats = {
  ejections : int;
  forcings : int;
  value_spills : int;
  invariant_spills : int;
  comm_inserted : int;
  attempts : int;
  ii_restarts : int;
  retries : int;
}

let zero_stats =
  { ejections = 0; forcings = 0; value_spills = 0; invariant_spills = 0;
    comm_inserted = 0; attempts = 0; ii_restarts = 0; retries = 0 }

let add_stats a b =
  { ejections = a.ejections + b.ejections;
    forcings = a.forcings + b.forcings;
    value_spills = a.value_spills + b.value_spills;
    invariant_spills = a.invariant_spills + b.invariant_spills;
    comm_inserted = a.comm_inserted + b.comm_inserted;
    attempts = a.attempts + b.attempts;
    ii_restarts = a.ii_restarts + b.ii_restarts;
    retries = a.retries + b.retries }

type outcome = {
  ii : int;
  mii : int;
  bounds : Mii.bounds;  (** of the final graph, for bound classification *)
  sc : int;
  schedule : Schedule.t;
  graph : Ddg.t;        (** final graph with all inserted operations *)
  seconds : float;
  stats : stats;
}

type error = [ `No_schedule of int (* last II tried *) ]

(* ------------------------------------------------------------------ *)
(* Final cleanup and checks                                            *)

(* Remove communication nodes whose value is never read (left behind by
   ejection/re-scheduling churn). *)
let prune_dead_comm (s : Attempt.t) =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if
          Ddg.mem s.g v
          && Op.is_communication (Ddg.kind s.g v)
          && Ddg.consumers s.g v = []
          && not
               (List.exists
                  (fun (inv : Ddg.invariant) ->
                    List.mem v inv.inv_consumers)
                  (Ddg.invariants s.g))
        then begin
          Attempt.unplace_node s v;
          Pqueue.remove s.pq v;
          Ddg.remove_node s.g v;
          changed := true
        end)
      (Ddg.nodes s.g)
  done

(* Residual unrouted operand edges can survive rare eject/splice
   interleavings; route them now exactly as scheduling-time routing
   would.  Returns the routes applied. *)
let repair_banks (s : Attempt.t) =
  let repaired = ref 0 in
  List.iter
    (fun (e : Ddg.edge) ->
      if
        Ddg.has_edge s.g e
        && Dep.equal e.dep Dep.True
        && Op.defines_value (Ddg.kind s.g e.src)
        && (not (Op.equal_kind (Ddg.kind s.g e.dst) Op.Move))
        && Schedule.is_scheduled s.sched e.src
        && Schedule.is_scheduled s.sched e.dst
      then
        match Schedule.def_bank s.sched s.g e.src with
        | None -> ()
        | Some db -> (
          let rb =
            Topology.read_bank s.config (Ddg.kind s.g e.dst)
              (Schedule.loc_of s.sched e.dst)
          in
          match Route.route_of s ~p:e.src ~db ~rb ~avoid:e.dst with
          | Route.Direct -> ()
          | Route.Route r ->
            incr repaired;
            Route.apply s ~anchor:e.dst e ~p:e.src ~db ~rb r))
    (Ddg.edges s.g);
  !repaired

(* Final consistency net for dependences: eject the consumer of any
   violated edge so it is rescheduled within its window. *)
let repair_deps (s : Attempt.t) =
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
          Attempt.eject s e.dst
        end)
    (Ddg.edges s.g);
  !count

(* Explicit rotating allocation per finite bank, against the
   capacity {!Regalloc.allocate} uses. *)
let allocation_failure (s : Attempt.t) =
  Tr.span s.trace Ev.Regalloc (fun () ->
      let ii = Schedule.ii s.sched in
      let lts = Pressure.lifetimes s.press in
      let loc_of = Schedule.placed_loc s.sched in
      Array.fold_left
        (fun acc (bank, _) ->
          match acc with
          | Some _ -> acc
          | None -> (
            let capacity = Regalloc.capacity s.config s.g ~loc_of bank in
            match
              Regalloc.allocate_bank ~trace:s.trace ~ii ~bank ~capacity lts
            with
            | Some _ -> None
            | None -> Some bank))
        None s.finite_banks)

let all_scheduled (s : Attempt.t) =
  List.for_all (fun v -> Schedule.is_scheduled s.sched v) (Ddg.nodes s.g)

(* ------------------------------------------------------------------ *)
(* One attempt at a given II                                           *)

let attempt config opts ~lat ~sel g0 ~order ~ii ~trace ~arena =
  let s =
    Attempt.create config ~lat ~budget_ratio:opts.budget_ratio
      ~backtracking:opts.backtracking g0 ~order ~ii ~trace ~arena
  in
  let sp = Spill.create () in
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
          (match Select.decide_loc sel s u with
          | `Splice -> Attempt.splice_out s u
          | `Loc loc ->
            (* apply one route at a time: placing a fresh copy can eject
               or splice nodes that other pending routes refer to, so each
               route is recomputed against the current graph *)
            let rec route_all guard =
              if guard > 0 && Ddg.mem s.g u && Route.route_first s u ~loc
              then route_all (guard - 1)
            in
            route_all 32;
            if Ddg.mem s.g u then Attempt.schedule_node s u ~loc);
          (match Spill.check sp s with
          | `Unfixable ->
            (* a bank is over capacity with nothing left to spill right
               now; keep scheduling — ejections may shorten the
               offending lifetimes — but only for a bounded number of
               over-pressure steps, then restart at II+1 *)
            unfixable_steps := !unfixable_steps + 1;
            if !unfixable_steps > 4 then raise Attempt.Attempt_failed
          | `Inserted _ -> ());
          loop ()
        end
      | None ->
        if not (all_scheduled s) then
          (* some node was descheduled without being requeued; give up *)
          None
        else if (repair_banks s > 0 || repair_deps s > 0) && s.budget > 0
        then loop ()
        else begin
          prune_dead_comm s;
          (* spill until every bank fits ([`Inserted 0]: nothing to
             spill), then until every bank allocates *)
          let spilled =
            match Spill.check sp s with
            | `Inserted 0 ->
              Option.map
                (fun bank -> Spill.check ~force_bank:bank sp s)
                (allocation_failure s)
            | r -> Some r
          in
          match spilled with
          | None -> Some s
          | Some (`Inserted n) when n > 0 && s.budget > 0 -> loop ()
          | Some (`Inserted _ | `Unfixable) -> None
        end
  in
  let result = try loop () with Attempt.Attempt_failed -> None in
  Ddg.set_watcher s.g None;
  result

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* The escalation of [schedule_escalating]: after a failed II search at
   the caller's budget ratio, the search once more at this one.  A
   dropped loop would silently bias every aggregate metric. *)
let escalation_budget = 16

(* The II search at the caller's budget ratio, then, if [escalate] and
   it failed, once more at [escalation_budget]: each a fresh search from
   the MII, both over one computation of the recurrences, MII, order,
   placeability test, arena and selection tables. *)
let run ~escalate ~(opts : options) ~trace (config : Config.t) (g0 : Ddg.t) :
    (outcome, error) result =
  let t0 = Unix.gettimeofday () in
  let lat = Latency.make ~override:opts.load_override config in
  (* one dense view and one SCC/RecMII pass serve the bound and the
     order *)
  let a, mii =
    Tr.span trace Ev.Mii (fun () ->
        let a = Mii.analyse lat g0 in
        (a, Mii.compute ~lat ~recs:a.recs config g0))
  in
  (* the priority order does not depend on II: compute it once *)
  let order =
    Tr.span trace Ev.Order (fun () ->
        match opts.ordering with
        | `Hrms -> Order.hrms a
        | `Topological -> Order.topological a)
  in
  let restarts = ref 0 in
  (* one arena serves every II attempt of this call, on both rungs:
     each re-uses the flat tables instead of reallocating them *)
  let arena = Arena.create () in
  let sel = Select.create config in
  let max_ii = max (4 * mii) (mii + 128) in
  let rec search ~opts ~retries ii =
    if ii > max_ii then Error (`No_schedule ii)
    else begin
      if Tr.enabled trace then Tr.emit trace (Ev.II_try ii);
      match attempt config opts ~lat ~sel g0 ~order ~ii ~trace ~arena with
      | Some s ->
        let seconds = Unix.gettimeofday () -. t0 in
        let bounds = Mii.bounds ~lat config s.g in
        let schedule = Work.product s.work ~next_id:(Ddg.next_id s.g) in
        Ok
          {
            ii;
            mii;
            bounds;
            sc = Schedule.stage_count schedule;
            schedule;
            graph = s.g;
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
                retries;
              };
          }
      | None ->
        incr restarts;
        (* the paper increments II by 1; after many failures we grow
           geometrically so pathological loops (tiny banks, big bodies)
           converge in reasonable time — the first 8 steps are faithful *)
        let step = if !restarts <= 8 then 1 else max 1 (ii / 8) in
        search ~opts ~retries (ii + step)
    end
  in
  Tr.span trace Ev.Schedule (fun () ->
      if Select.unplaceable sel g0 then Error (`No_schedule mii)
      else
        match search ~opts ~retries:0 mii with
        | Error _ when escalate ->
          restarts := 0;
          if Tr.enabled trace then
            Tr.emit trace (Ev.Budget_escalate { rung = 1 });
          search ~opts:{ opts with budget_ratio = escalation_budget }
            ~retries:1 mii
        | r -> r)

let schedule ?(opts = default_options) ?(trace = Tr.off) config g0 =
  run ~escalate:false ~opts ~trace config g0

let schedule_escalating ?(opts = default_options) ?(trace = Tr.off) config
    g0 =
  run ~escalate:true ~opts ~trace config g0
