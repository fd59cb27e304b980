(* Exact small-loop modulo scheduler — see exact.mli for the contract
   and the soundness arguments behind each pruning rule. *)

module Config = Hcrf_machine.Config
module Cap = Hcrf_machine.Cap
module Rf = Hcrf_machine.Rf
module Ddg = Hcrf_ir.Ddg
module Op = Hcrf_ir.Op
module Dep = Hcrf_ir.Dep
module Scc = Hcrf_ir.Scc
module Topology = Hcrf_sched.Topology
module Latency = Hcrf_sched.Latency
module Lifetimes = Hcrf_sched.Lifetimes
module Mii = Hcrf_sched.Mii
module Mrt = Hcrf_sched.Mrt
module Schedule = Hcrf_sched.Schedule
module Validate = Hcrf_sched.Validate
module Engine = Hcrf_sched.Engine
module Tr = Hcrf_obs.Trace
module Ev = Hcrf_obs.Event

let neg_inf = min_int / 4

exception Budget_exhausted
exception Sat
exception Found of Engine.outcome

type witness = { w_ii : int; w_outcome : Engine.outcome }

type t = {
  x_mii : int;
  x_bounds : Mii.bounds;
  x_lb : int;
  x_lb_exhausted : bool;
  x_witness : witness option;
  x_optimal : bool;
  x_steps : int;
  x_budget_hit : bool;
  x_sigmas : int;
}

let pp ppf t =
  Fmt.pf ppf "lb=%d%s witness=%s optimal=%b steps=%d sigmas=%d%s" t.x_lb
    (if t.x_lb_exhausted then "" else "?")
    (match t.x_witness with Some w -> string_of_int w.w_ii | None -> "none")
    t.x_optimal t.x_steps t.x_sigmas
    (if t.x_budget_hit then " budget_hit" else "")

let default_budget = 4_000_000

(* ------------------------------------------------------------------ *)
(* Shared search structure: one [prob] per (graph, II).                *)

type prob = {
  n : int;
  ids : int array;  (* index -> node id, increasing *)
  idx_of : int array;  (* node id -> index *)
  dist : int array array;  (* longest-path weights; [neg_inf] = no path *)
  order : int array;  (* search order over indices *)
  comp_root : int array;  (* index -> index of its component root *)
  spread : int array;  (* index -> spread bound of its component *)
  pos_cycle : bool;  (* the dependence system refutes this II outright *)
}

let build_dist lat g ~ids ~idx_of ~ii =
  let n = Array.length ids in
  let d = Array.make_matrix n n neg_inf in
  List.iter
    (fun (e : Ddg.edge) ->
      let u = idx_of.(e.src) and v = idx_of.(e.dst) in
      let w = Latency.of_edge lat g e - (ii * e.distance) in
      if w > d.(u).(v) then d.(u).(v) <- w)
    (Ddg.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if d.(i).(k) > neg_inf then
        for j = 0 to n - 1 do
          if d.(k).(j) > neg_inf && d.(i).(k) + d.(k).(j) > d.(i).(j) then
            d.(i).(j) <- d.(i).(k) + d.(k).(j)
        done
    done
  done;
  d

(* Weakly-connected components; the root of a component is its smallest
   index, components are visited in root order. *)
let build_components ~n ~adj =
  let comp_root = Array.make n (-1) in
  for r = 0 to n - 1 do
    if comp_root.(r) < 0 then begin
      let stack = ref [ r ] in
      comp_root.(r) <- r;
      while !stack <> [] do
        let v = List.hd !stack in
        stack := List.tl !stack;
        List.iter
          (fun u ->
            if comp_root.(u) < 0 then begin
              comp_root.(u) <- r;
              stack := u :: !stack
            end)
          adj.(v)
      done
    end
  done;
  comp_root

(* Deterministic connected-expansion order: components by root; inside a
   component start at the root and repeatedly pick the unassigned node
   adjacent to the assigned prefix, preferring nodes whose SCC has
   already been touched (recurrences get tight windows early), then the
   smallest index. *)
let build_order g ~n ~idx_of ~adj ~comp_root =
  let sccid = Array.make n (-1) in
  List.iteri
    (fun i scc -> List.iter (fun id -> sccid.(idx_of.(id)) <- i) scc)
    (Scc.sccs g);
  let scc_touched = Array.make n false in
  let assigned = Array.make n false in
  let frontier = Array.make n false in
  let order = Array.make n (-1) in
  let pos = ref 0 in
  let assign v =
    order.(!pos) <- v;
    incr pos;
    assigned.(v) <- true;
    if sccid.(v) >= 0 then scc_touched.(sccid.(v)) <- true;
    List.iter (fun u -> if not assigned.(u) then frontier.(u) <- true) adj.(v)
  in
  for r = 0 to n - 1 do
    if comp_root.(r) = r then begin
      assign r;
      let remaining = ref 0 in
      for v = 0 to n - 1 do
        if comp_root.(v) = r && v <> r then incr remaining
      done;
      while !remaining > 0 do
        let best = ref (-1) and best_key = ref max_int in
        for v = 0 to n - 1 do
          if frontier.(v) && not assigned.(v) then begin
            let key = (if scc_touched.(sccid.(v)) then 0 else n + 1) + v in
            if key < !best_key then begin
              best := v;
              best_key := key
            end
          end
        done;
        assign !best;
        frontier.(!best) <- false;
        decr remaining
      done
    end
  done;
  order

let build_prob lat g ~ii =
  let ids = Array.of_list (Ddg.nodes g) in
  let n = Array.length ids in
  let max_id = Array.fold_left max (-1) ids in
  let idx_of = Array.make (max_id + 2) (-1) in
  Array.iteri (fun i id -> idx_of.(id) <- i) ids;
  let dist = build_dist lat g ~ids ~idx_of ~ii in
  let pos_cycle =
    let bad = ref false in
    for i = 0 to n - 1 do
      if dist.(i).(i) > 0 then bad := true
    done;
    !bad
  in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Ddg.edge) ->
      let u = idx_of.(e.src) and v = idx_of.(e.dst) in
      if u <> v then begin
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      end)
    (Ddg.edges g);
  let comp_root = build_components ~n ~adj in
  let order = build_order g ~n ~idx_of ~adj ~comp_root in
  (* Per-component spread bound: (k - 1) * (max |weight| + II). *)
  let spread = Array.make n 0 in
  let ksize = Array.make n 0 in
  let wmax = Array.make n 0 in
  for v = 0 to n - 1 do
    ksize.(comp_root.(v)) <- ksize.(comp_root.(v)) + 1
  done;
  List.iter
    (fun (e : Ddg.edge) ->
      let r = comp_root.(idx_of.(e.src)) in
      let w = abs (Latency.of_edge lat g e - (ii * e.distance)) in
      if w > wmax.(r) then wmax.(r) <- w)
    (Ddg.edges g);
  for v = 0 to n - 1 do
    let r = comp_root.(v) in
    spread.(v) <- (ksize.(r) - 1) * (wmax.(r) + ii)
  done;
  { n; ids; idx_of; dist; order; comp_root; spread; pos_cycle }

(* ------------------------------------------------------------------ *)
(* Average-pressure pruning.  Every lifetime cycle lands on some modulo
   slot, so ceil(total lifetime in a bank / II) lower-bounds that
   bank's MaxLives ({!Hcrf_sched.Lifetimes.pressure}); partial sums of
   per-value lifetime lower bounds therefore soundly refute partial
   assignments.  A consumer only extends the producer's counted
   lifetime when it reads the producer's definition bank — a remote
   consumer is served by a copy chain whose lifetimes live in *other*
   banks, so counting it here would be unsound in the phase-A
   relaxation (in phase B the extended graph makes every edge local, so
   the guard is always true). *)

type pressure = {
  caps : int array;  (* bank code -> capacity - resident invariants *)
  defb : int array array;  (* idx -> loc choice -> def bank code; -1 none *)
  readb : int array array;  (* idx -> loc choice -> read bank code *)
  birth : int array;  (* idx -> write-back offset of the definition *)
  pcons : (int * int) list array;  (* idx -> (consumer idx, distance) *)
  pprods : (int * int) list array;  (* idx -> (producer idx, distance) *)
  passigned : bool array;
  span : int array;  (* idx -> currently counted lifetime *)
  sum : int array;  (* bank code -> sum of counted lifetimes *)
}

(* [loc_of] places the invariants' consumers for {!Lifetimes.residents}
   (nowhere in the relaxation, which reserves no invariant register). *)
let build_pressure config lat g ~(prob : prob) ~locs ~loc_of =
  let code_of = Topology.bank_code config in
  let n = prob.n in
  let defb =
    Array.init n (fun i ->
        let k = Ddg.kind g prob.ids.(i) in
        Array.map
          (fun loc ->
            if not (Op.defines_value k) then -1
            else
              match Topology.def_bank config k loc with
              | None -> -1
              | Some b -> code_of b)
          locs.(i))
  in
  let readb =
    Array.init n (fun i ->
        let k = Ddg.kind g prob.ids.(i) in
        Array.map (fun loc -> code_of (Topology.read_bank config k loc)) locs.(i))
  in
  let birth =
    Array.init n (fun i ->
        let k = Ddg.kind g prob.ids.(i) in
        if Op.defines_value k then Latency.of_def lat ~id:prob.ids.(i) ~kind:k
        else 0)
  in
  let pcons = Array.make n [] and pprods = Array.make n [] in
  List.iter
    (fun id ->
      let u = prob.idx_of.(id) in
      List.iter
        (fun (e : Ddg.edge) ->
          let v = prob.idx_of.(e.dst) in
          pcons.(u) <- (v, e.distance) :: pcons.(u);
          pprods.(v) <- (u, e.distance) :: pprods.(v))
        (Ddg.consumers g id))
    (Ddg.nodes g);
  let caps =
    Array.init (Topology.bank_codes config) (fun i ->
        let b = Topology.bank_of_code config i in
        match Topology.bank_capacity config b with
        | Cap.Inf -> max_int / 2
        | Cap.Finite c -> c - Lifetimes.residents config g ~loc_of b)
  in
  {
    caps;
    defb;
    readb;
    birth;
    pcons;
    pprods;
    passigned = Array.make n false;
    span = Array.make n 0;
    sum = Array.make (Array.length caps) 0;
  }

(* Count [v]'s placement; returns the undo list (idx, old span, bank)
   and whether every touched bank still fits.  The caller always undoes,
   successful or not. *)
let press_try pr ~ii v ~cycle ~li ~cycles ~locix =
  let undo = ref [] in
  let ok = ref true in
  let fits b = (pr.sum.(b) + ii - 1) / ii <= pr.caps.(b) in
  let bv = pr.defb.(v).(li) in
  (if bv >= 0 then begin
     let birth = cycle + pr.birth.(v) in
     let sp =
       List.fold_left
         (fun acc (u, d) ->
           if pr.passigned.(u) && pr.readb.(u).(locix.(u)) = bv then
             max acc (cycles.(u) + (ii * d) - birth)
           else acc)
         0 pr.pcons.(v)
     in
     undo := (v, 0, bv) :: !undo;
     pr.span.(v) <- sp;
     pr.sum.(bv) <- pr.sum.(bv) + sp;
     if not (fits bv) then ok := false
   end
   else pr.span.(v) <- 0);
  if !ok then begin
    let rb = pr.readb.(v).(li) in
    List.iter
      (fun (p, d) ->
        if !ok && pr.passigned.(p) then begin
          let bp = pr.defb.(p).(locix.(p)) in
          if bp >= 0 && bp = rb then begin
            let s = cycle + (ii * d) - (cycles.(p) + pr.birth.(p)) in
            if s > pr.span.(p) then begin
              undo := (p, pr.span.(p), bp) :: !undo;
              pr.sum.(bp) <- pr.sum.(bp) + (s - pr.span.(p));
              pr.span.(p) <- s;
              if not (fits bp) then ok := false
            end
          end
        end)
      pr.pprods.(v)
  end;
  pr.passigned.(v) <- true;
  (!undo, !ok)

let press_undo pr v undo =
  List.iter
    (fun (i, old, b) ->
      pr.sum.(b) <- pr.sum.(b) - (pr.span.(i) - old);
      pr.span.(i) <- old)
    undo;
  pr.passigned.(v) <- false

(* ------------------------------------------------------------------ *)
(* Branch and bound over (cycle, location) assignments.                *)

type search = {
  prob : prob;
  ii : int;
  mrt : Mrt.t;
  locs : Topology.loc array array;  (* index -> candidate locations *)
  cu : Mrt.cuses array array;  (* index -> location choice -> vector *)
  cycles : int array;
  locix : int array;
  steps : int ref;
  budget : int;
  symmetry : bool;  (* break homogeneous-cluster relabeling *)
  cap_window : bool;  (* witness mode: try only II consecutive starts *)
  press : pressure;
}

let rec descend st depth used_max ~on_leaf =
  if depth = st.prob.n then on_leaf st
  else begin
    let p = st.prob in
    let v = p.order.(depth) in
    let lo = ref 0 and hi = ref 0 in
    let lo_tight = ref false and hi_tight = ref false in
    if p.comp_root.(v) = v then begin
      if v = 0 then (* globally-first root: rotation symmetry pins it *)
        ()
      else hi := st.ii - 1 (* component shift symmetry modulo II *)
    end
    else begin
      let rc = st.cycles.(p.comp_root.(v)) in
      lo := rc - p.spread.(v);
      hi := rc + p.spread.(v);
      for d = 0 to depth - 1 do
        let u = p.order.(d) in
        if p.dist.(u).(v) > neg_inf then begin
          lo_tight := true;
          if st.cycles.(u) + p.dist.(u).(v) > !lo then
            lo := st.cycles.(u) + p.dist.(u).(v)
        end;
        if p.dist.(v).(u) > neg_inf then begin
          hi_tight := true;
          if st.cycles.(u) - p.dist.(v).(u) < !hi then
            hi := st.cycles.(u) - p.dist.(v).(u)
        end
      done
    end;
    (* Witness search only: resource use repeats modulo II, so II
       consecutive start cycles cover every reservation pattern; later
       starts only delay successors.  Anchor the window on whichever
       side a placed neighbor actually constrained — the expansion
       order is not topological, so a node placed after its consumers
       has a loose spread-bound [lo] and its real seat just below [hi].
       Incomplete (exhaustion in this mode never refutes an II) but
       prunes the dependence-slack blowup at small IIs. *)
    if st.cap_window && !hi > !lo + st.ii - 1 then
      if !hi_tight && not !lo_tight then lo := !hi - st.ii + 1
      else hi := !lo + st.ii - 1;
    let nl = Array.length st.locs.(v) in
    for c = !lo to !hi do
      for li = 0 to nl - 1 do
        let loc = st.locs.(v).(li) in
        let sym_ok =
          (not st.symmetry)
          ||
          match loc with
          | Topology.Global -> true
          | Topology.Cluster k -> k <= used_max + 1
        in
        if sym_ok then begin
          incr st.steps;
          if !(st.steps) > st.budget then raise Budget_exhausted;
          if Mrt.can_place_c st.mrt st.cu.(v).(li) ~cycle:c then begin
            Mrt.place_c st.mrt ~node:p.ids.(v) st.cu.(v).(li) ~cycle:c;
            st.cycles.(v) <- c;
            st.locix.(v) <- li;
            let undo, fits =
              press_try st.press ~ii:st.ii v ~cycle:c ~li ~cycles:st.cycles
                ~locix:st.locix
            in
            if fits then begin
              let used_max' =
                match loc with
                | Topology.Cluster k when k > used_max -> k
                | _ -> used_max
              in
              descend st (depth + 1) used_max' ~on_leaf
            end;
            press_undo st.press v undo;
            Mrt.remove st.mrt ~node:p.ids.(v)
          end
        end
      done
    done
  end

(* ------------------------------------------------------------------ *)
(* Phase A: certified lower bound over the original nodes.             *)

let relax_feasible config lat g ~ii ~steps ~budget =
  let prob = build_prob lat g ~ii in
  if prob.pos_cycle then `Refuted
  else begin
    let mrt = Mrt.create config ~ii in
    let locs =
      Array.map
        (fun id -> Array.of_list (Topology.exec_locs config (Ddg.kind g id)))
        prob.ids
    in
    let cu =
      Array.mapi
        (fun i id ->
          Array.map
            (fun loc ->
              Mrt.compile mrt
                (Topology.uses config (Ddg.kind g id) loc ~src:None))
            locs.(i))
        prob.ids
    in
    let st =
      {
        prob;
        ii;
        mrt;
        locs;
        cu;
        cycles = Array.make prob.n 0;
        locix = Array.make prob.n 0;
        steps;
        budget;
        symmetry = Config.clusters config > 1;
        cap_window = false;
        press =
          build_pressure config lat g ~prob ~locs ~loc_of:(fun _ -> None);
      }
    in
    match descend st 0 (-1) ~on_leaf:(fun _ -> raise Sat) with
    | () -> `Refuted
    | exception Sat -> `Feasible
  end

(* ------------------------------------------------------------------ *)
(* All-location-assignment refutation (lower-bound lift).  Phase A is a
   communication-free relaxation; here an II is refuted outright when
   EVERY canonical location assignment is refuted by a bound that also
   holds for spilled and memory-routed schedules:

   R1 — cross-bank true dependences must pass through a transport chain
   (moves along the topology, or a store/load round trip through the
   shared bank or memory), so they gain at least the cheapest
   transport's total latency; a positive cycle under the lifted weights
   refutes the assignment.

   R2 — every operation executing in cluster [i] occupies one of its
   Fu/Mem/Lp units, and a value needed in [Local i] but defined
   elsewhere requires at least one operation *defining into* that bank
   (Move, LoadR or a spill reload), which also executes in cluster [i];
   the per-cluster operation count therefore cannot exceed
   II * (units Fu + units Mem + units Lp).  The hierarchical global
   memory ports get the analogous aggregate check. *)

(* Unbounded capacities become a count no loop can reach; kept small
   enough that [ii * cap] cannot overflow. *)
let cap_int = function Cap.Finite x -> x | Cap.Inf -> 1_000_000

(* Location assignments for the original nodes, in id order, with
   homogeneous clusters used in first-touch order, as
   {!Topology.loc_code}s. *)
let enum_sigmas locs_all =
  let n = Array.length locs_all in
  let out = ref [] in
  let cur = Array.make n (-1) in
  let rec go i used_max =
    if i = n then out := Array.copy cur :: !out
    else
      Array.iter
        (fun loc ->
          match loc with
          | Topology.Cluster k when k > used_max + 1 -> ()
          | Topology.Global | Topology.Cluster _ ->
            let code = Topology.loc_code loc in
            cur.(i) <- code;
            go (i + 1) (max used_max code))
        locs_all.(i)
  in
  go 0 (-1);
  List.rev !out

(* Minimum extra latency to make a value defined in one bank readable
   from another, over every transport route the machine offers
   (including the memory round trip spills can use); min-plus closure
   over the tiny bank graph extended with a memory pseudo-bank. *)
let transport_extra config =
  let k = Config.clusters config in
  let has_shared =
    match config.Config.rf with Rf.Hierarchical _ -> true | _ -> false
  in
  let m = k + (if has_shared then 1 else 0) + 1 in
  let mem = m - 1 and shared = k in
  let inf = max_int / 4 in
  let d = Array.make_matrix m m inf in
  for i = 0 to m - 1 do
    d.(i).(i) <- 0
  done;
  let edge a b w = if w < d.(a).(b) then d.(a).(b) <- w in
  let l kind = Config.op_latency config kind in
  (match config.Config.rf with
  | Rf.Monolithic _ -> ()
  | Rf.Clustered _ ->
    for s = 0 to k - 1 do
      edge s mem (l Op.Spill_store);
      edge mem s (l Op.Spill_load);
      for t = 0 to k - 1 do
        if s <> t then edge s t (l Op.Move)
      done
    done
  | Rf.Hierarchical _ ->
    for i = 0 to k - 1 do
      edge i shared (l Op.Store_r);
      edge shared i (l Op.Load_r)
    done;
    edge shared mem (l Op.Spill_store);
    edge mem shared (l Op.Spill_load));
  for c = 0 to m - 1 do
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if d.(i).(c) + d.(c).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(c) + d.(c).(j)
      done
    done
  done;
  let code = Topology.bank_code config in
  fun b1 b2 -> d.(code b1).(code b2)

let sigma_refuted config lat g ~t_extra ~ii ~sigma ~ids ~idx_of =
  let n = Array.length ids in
  let k = Config.clusters config in
  let loc i = Topology.loc_of_code sigma.(i) in
  let bank_of i = Topology.def_bank config (Ddg.kind g ids.(i)) (loc i) in
  let read_of i = Topology.read_bank config (Ddg.kind g ids.(i)) (loc i) in
  let clustered =
    match config.Config.rf with Rf.Clustered _ -> true | _ -> false
  in
  (* R2: per-resource unit-cycle demand of the original operations (a
     non-pipelined op occupies its unit for its whole latency), plus the
     pooled ports any transport must take: a value entering [Local d]
     arrives through an input port (Move/LoadR) or — flat clustered
     RF only — a spill reload on the cluster's memory ports; a value
     leaving [Local s] goes out through an output port (Move/StoreR) or
     a spill store on the cluster's memory ports. *)
  let demand = Hashtbl.create 16 in
  let dget r = Option.value (Hashtbl.find_opt demand r) ~default:0 in
  Array.iteri
    (fun i id ->
      List.iter
        (fun (r, dur) ->
          (* the MRT clips a reservation at II slots (a non-pipelined op
             longer than II pins one whole unit), mirror it *)
          Hashtbl.replace demand r (dget r + min dur ii))
        (Topology.uses config (Ddg.kind g id) (loc i) ~src:None))
    ids;
  let pool_in = Array.make k 0 and pool_out = Array.make k 0 in
  Array.iter
    (fun id ->
      let i = idx_of.(id) in
      match bank_of i with
      | None -> ()
      | Some db ->
        let seen = ref [] in
        List.iter
          (fun (e : Ddg.edge) ->
            let rb = read_of idx_of.(e.dst) in
            if
              (not (Topology.equal_bank rb db))
              && not (List.exists (Topology.equal_bank rb) !seen)
            then begin
              seen := rb :: !seen;
              match rb with
              | Topology.Local d -> pool_in.(d) <- pool_in.(d) + 1
              | Topology.Shared -> ()
            end)
          (Ddg.consumers g id);
        (* An operand-free load is rematerializable: the scheduler can
           re-issue it in the consumer's cluster, so its value never
           leaves the home bank (it still counts toward [pool_in] —
           the re-issued load lands on the pooled input/memory ports). *)
        let remat =
          Op.equal_kind (Ddg.kind g id) Op.Load && Ddg.operands g id = []
        in
        if !seen <> [] && not remat then
          match db with
          | Topology.Local s -> pool_out.(s) <- pool_out.(s) + 1
          | Topology.Shared -> ())
    ids;
  let u r = cap_int (Topology.units config r) in
  let r2 = ref false in
  Hashtbl.iter (fun r d -> if d > ii * u r then r2 := true) demand;
  for c = 0 to k - 1 do
    let mem_d = if clustered then dget (Topology.Mem c) else 0 in
    let mem_u = if clustered then u (Topology.Mem c) else 0 in
    if pool_in.(c) + mem_d > ii * (u (Topology.Lp c) + mem_u) then r2 := true;
    if pool_out.(c) + mem_d > ii * (u (Topology.Sp c) + mem_u) then r2 := true;
    if
      pool_in.(c) + pool_out.(c) + mem_d
      > ii * (u (Topology.Lp c) + u (Topology.Sp c) + mem_u)
    then r2 := true
  done;
  !r2
  ||
  (* R1: positive cycle under transport-lifted weights. *)
  let d = Array.make_matrix n n neg_inf in
  List.iter
    (fun (e : Ddg.edge) ->
      let u = idx_of.(e.src) and v = idx_of.(e.dst) in
      let extra =
        match e.dep with
        | Dep.True -> (
          match bank_of u with
          | None -> 0
          | Some db ->
            let rb = read_of v in
            if Topology.equal_bank db rb then 0 else t_extra db rb)
        | Dep.Anti | Dep.Output -> 0
      in
      let w = Latency.of_edge lat g e + extra - (ii * e.distance) in
      if w > d.(u).(v) then d.(u).(v) <- w)
    (Ddg.edges g);
  let refuted = ref false in
  (try
     for c = 0 to n - 1 do
       for i = 0 to n - 1 do
         if d.(i).(c) > neg_inf then
           for j = 0 to n - 1 do
             if d.(c).(j) > neg_inf && d.(i).(c) + d.(c).(j) > d.(i).(j)
             then begin
               d.(i).(j) <- d.(i).(c) + d.(c).(j);
               if i = j && d.(i).(j) > 0 then raise Sat
             end
           done
       done
     done
   with Sat -> refuted := true);
  !refuted

(* ------------------------------------------------------------------ *)
(* Phase B: a real spill-free witness schedule.                        *)

(* Number of communication nodes the canonical routing inserts for this
   location assignment (used to try cheap assignments first). *)
let comm_cost config g sigma ~idx_of =
  let cost = ref 0 in
  List.iter
    (fun u ->
      let lu = Topology.loc_of_code sigma.(idx_of.(u)) in
      match Topology.def_bank config (Ddg.kind g u) lu with
      | None -> ()
      | Some db ->
        let provided = ref [ db ] in
        List.iter
          (fun (e : Ddg.edge) ->
            let v = e.dst in
            let nb =
              Topology.read_bank config (Ddg.kind g v)
                (Topology.loc_of_code sigma.(idx_of.(v)))
            in
            if not (List.exists (Topology.equal_bank nb) !provided) then
              List.iter
                (fun (ck, cl) ->
                  match Topology.def_bank config ck cl with
                  | None -> ()
                  | Some hb ->
                    if not (List.exists (Topology.equal_bank hb) !provided)
                    then begin
                      incr cost;
                      provided := hb :: !provided
                    end)
                (Topology.comm_path config ~src_bank:db ~dst_bank:nb))
          (Ddg.consumers g u))
    (Ddg.nodes g);
  !cost

(* Extend a copy of [g0] with the canonical copy chains for [sigma]:
   per producer, one provider node per reachable bank (copy reuse), with
   each consumer edge rewired to the provider of the bank it reads.
   Returns the extended graph, the fixed location of every node and, for
   Moves, their source bank (their reservation depends on it). *)
let build_extended config g0 sigma ~idx_of =
  let g = Ddg.copy g0 in
  let loc_tbl = ref [] in
  (* node id -> loc code *)
  let src_tbl = ref [] in
  (* move id -> source bank *)
  let n_comm = ref 0 in
  List.iter
    (fun u ->
      let iu = idx_of.(u) in
      loc_tbl := (u, sigma.(iu)) :: !loc_tbl)
    (Ddg.nodes g0);
  List.iter
    (fun u ->
      let lu = Topology.loc_of_code sigma.(idx_of.(u)) in
      match Topology.def_bank config (Ddg.kind g0 u) lu with
      | None -> ()
      | Some db ->
        let providers = ref [ (db, u) ] in
        let provider_of b =
          List.find_opt (fun (b', _) -> Topology.equal_bank b b') !providers
        in
        List.iter
          (fun (e : Ddg.edge) ->
            let v = e.dst in
            let nb =
              Topology.read_bank config (Ddg.kind g0 v)
                (Topology.loc_of_code sigma.(idx_of.(v)))
            in
            (if provider_of nb = None then
               let cur = ref u and curb = ref db in
               List.iter
                 (fun (ck, cl) ->
                   match Topology.def_bank config ck cl with
                   | None -> ()
                   | Some hb -> (
                     match provider_of hb with
                     | Some (_, p) ->
                       cur := p;
                       curb := hb
                     | None ->
                       let nid = Ddg.add_node g ck in
                       Ddg.add_edge g ~distance:0 ~dep:Dep.True !cur nid;
                       loc_tbl := (nid, Topology.loc_code cl) :: !loc_tbl;
                       if ck = Op.Move then src_tbl := (nid, !curb) :: !src_tbl;
                       incr n_comm;
                       providers := (hb, nid) :: !providers;
                       cur := nid;
                       curb := hb))
                 (Topology.comm_path config ~src_bank:db ~dst_bank:nb));
            match provider_of nb with
            | Some (_, p) when p <> u ->
              Ddg.remove_edge g e;
              Ddg.add_edge g ~distance:e.distance ~dep:Dep.True p v
            | _ -> ())
          (Ddg.consumers g0 u))
    (Ddg.nodes g0);
  (g, !loc_tbl, !src_tbl, !n_comm)

(* A dependence- and resource-feasible leaf: normalize cycles to be
   non-negative (shifting by multiples of II preserves everything),
   build the real schedule and let the independent checker judge it. *)
let try_leaf config lat ~ii ~mii0 ~g ~n_comm st =
  let p = st.prob in
  let shift =
    let mn = ref max_int in
    for v = 0 to p.n - 1 do
      if st.cycles.(v) < !mn then mn := st.cycles.(v)
    done;
    if p.n = 0 || !mn >= 0 then 0 else (((- !mn) + ii - 1) / ii) * ii
  in
  let s = Schedule.create ~lat config ~ii in
  for v = 0 to p.n - 1 do
    Schedule.place s g p.ids.(v)
      ~cycle:(st.cycles.(v) + shift)
      ~loc:st.locs.(v).(st.locix.(v))
  done;
  if Validate.check s g = [] then begin
    let outcome =
      {
        Engine.ii;
        mii = mii0;
        bounds = Mii.bounds ~lat config g;
        sc = Schedule.stage_count s;
        schedule = s;
        graph = g;
        seconds = 0.;
        stats =
          {
            Engine.ejections = 0;
            forcings = 0;
            value_spills = 0;
            invariant_spills = 0;
            comm_inserted = n_comm;
            attempts = 0;
            ii_restarts = 0;
            retries = 0;
          };
      }
    in
    raise (Found outcome)
  end

(* Try to build a witness at [ii]; [None] when the canonical spill-free
   space is exhausted (which does not refute [ii]). *)
let witness_at config lat g0 ~ii ~mii0 ~steps ~budget ~sigmas ~cands
    ~idx_of:idx_of0 =
  try
    List.iter
      (fun sigma ->
        incr sigmas;
        let g, loc_tbl, src_tbl, n_comm =
          build_extended config g0 sigma ~idx_of:idx_of0
        in
        let prob = build_prob lat g ~ii in
        steps := !steps + (prob.n * prob.n);
        if !steps > budget then raise Budget_exhausted;
        if not prob.pos_cycle then begin
          let mrt = Mrt.create config ~ii in
          let locs =
            Array.map
              (fun id -> [| Topology.loc_of_code (List.assoc id loc_tbl) |])
              prob.ids
          in
          let cu =
            Array.mapi
              (fun i id ->
                let kind = Ddg.kind g id in
                let src =
                  if kind = Op.Move then Some (List.assoc id src_tbl) else None
                in
                [| Mrt.compile mrt (Topology.uses config kind locs.(i).(0) ~src) |])
              prob.ids
          in
          let press =
            build_pressure config lat g ~prob ~locs ~loc_of:(fun id ->
                Some locs.(prob.idx_of.(id)).(0))
          in
          (* Resident invariants alone overflowing a bank can never
             validate; drop the assignment without searching. *)
          if Array.for_all (fun c -> c >= 0) press.caps then begin
            let st =
              {
                prob;
                ii;
                mrt;
                locs;
                cu;
                cycles = Array.make prob.n 0;
                locix = Array.make prob.n 0;
                steps;
                budget;
                symmetry = false;
                cap_window = true;
                press;
              }
            in
            descend st 0 (-1)
              ~on_leaf:(try_leaf config lat ~ii ~mii0 ~g ~n_comm)
          end
        end)
      cands;
    None
  with Found outcome -> Some { w_ii = ii; w_outcome = outcome }

(* ------------------------------------------------------------------ *)

let solve ?(budget = default_budget) ?up_to ?(witness = true) ?(trace = Tr.off)
    config g0 =
  List.iter
    (fun id ->
      if not (Op.is_original (Ddg.kind g0 id)) then
        invalid_arg "Exact.solve: graph contains scheduler-inserted operations")
    (Ddg.nodes g0);
  Tr.span trace Ev.Exact (fun () ->
      let lat = Latency.make config in
      let bounds = Mii.bounds ~lat config g0 in
      let mii0 = max 1 (Mii.mii bounds) in
      let max_ii = Option.value up_to ~default:(mii0 + 30) in
      let steps = ref 0 in
      let budget_hit = ref false in
      let sigmas = ref 0 in
      (* Phase A: refute IIs from the MII floor upward. *)
      let rec find_lb ii =
        if ii > max_ii then (max_ii + 1, true)
        else
          match relax_feasible config lat g0 ~ii ~steps ~budget with
          | `Feasible -> (ii, true)
          | `Refuted -> find_lb (ii + 1)
          | exception Budget_exhausted ->
            budget_hit := true;
            (ii, false)
      in
      let lb, lb_exhausted = find_lb mii0 in
      (* Shared location-assignment space, cheapest routing first. *)
      let ids = Array.of_list (Ddg.nodes g0) in
      let max_id = Array.fold_left max (-1) ids in
      let idx_of0 = Array.make (max_id + 2) (-1) in
      Array.iteri (fun i id -> idx_of0.(id) <- i) ids;
      let locs_all =
        Array.map
          (fun id -> Array.of_list (Topology.exec_locs config (Ddg.kind g0 id)))
          ids
      in
      let cands = enum_sigmas locs_all in
      let cands =
        List.sort
          (fun a b ->
            let c =
              compare
                (comm_cost config g0 a ~idx_of:idx_of0)
                (comm_cost config g0 b ~idx_of:idx_of0)
            in
            if c <> 0 then c else compare a b)
          cands
      in
      (* Lift the bound: an II is refuted outright when every canonical
         location assignment is refuted by a transport-aware bound. *)
      let t_extra = transport_extra config in
      let n0 = Array.length ids in
      let lb =
        if not (lb_exhausted && not !budget_hit) then lb
        else begin
          let lifted = ref lb in
          (try
             while
               !lifted <= max_ii && cands <> []
               && List.for_all
                    (fun sigma ->
                      steps := !steps + (n0 * n0);
                      if !steps > budget then raise Budget_exhausted;
                      sigma_refuted config lat g0 ~t_extra ~ii:!lifted ~sigma
                        ~ids ~idx_of:idx_of0)
                    cands
             do
               incr lifted
             done
           with Budget_exhausted -> budget_hit := true);
          !lifted
        end
      in
      (* Phase B: cheapest-first witness search from the bound up. *)
      let w = ref None in
      if witness && lb <= max_ii && not !budget_hit then begin
        try
          let ii = ref lb in
          while !w = None && !ii <= max_ii do
            (match
               witness_at config lat g0 ~ii:!ii ~mii0 ~steps ~budget ~sigmas
                 ~cands ~idx_of:idx_of0
             with
            | Some witness -> w := Some witness
            | None -> incr ii)
          done
        with Budget_exhausted -> budget_hit := true
      end;
      let optimal =
        lb_exhausted
        && match !w with Some { w_ii; _ } -> w_ii = lb | None -> false
      in
      let result =
        {
          x_mii = mii0;
          x_bounds = bounds;
          x_lb = lb;
          x_lb_exhausted = lb_exhausted;
          x_witness = !w;
          x_optimal = optimal;
          x_steps = !steps;
          x_budget_hit = !budget_hit;
          x_sigmas = !sigmas;
        }
      in
      if Tr.enabled trace then
        Tr.emit trace
          (Ev.Exact_search
             {
               lb;
               witness_ii =
                 (match !w with Some { w_ii; _ } -> w_ii | None -> -1);
               steps = !steps;
             });
      result)
