(* Unit tests for the operational semantics of each RF organization,
   and negative tests proving the validator catches specific
   corruptions. *)

open Hcrf_ir
open Hcrf_machine
open Hcrf_sched

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mono = lazy (Hcrf_model.Presets.published "S128")
let flat = lazy (Hcrf_model.Presets.published "4C32")
let hier = lazy (Hcrf_model.Presets.published "4C16S16")

(* ------------------------------------------------------------------ *)
(* exec_locs *)

let test_exec_locs () =
  check_int "monolithic: one location" 1
    (List.length (Topology.exec_locs (Lazy.force mono) Op.Fadd));
  check_int "clustered: compute anywhere" 4
    (List.length (Topology.exec_locs (Lazy.force flat) Op.Fadd));
  check_int "clustered: loads in clusters too" 4
    (List.length (Topology.exec_locs (Lazy.force flat) Op.Load));
  check "clustered: no LoadR" true
    (Topology.exec_locs (Lazy.force flat) Op.Load_r = []);
  check "hierarchical: loads are global" true
    (Topology.exec_locs (Lazy.force hier) Op.Load = [ Topology.Global ]);
  check_int "hierarchical: LoadR in clusters" 4
    (List.length (Topology.exec_locs (Lazy.force hier) Op.Load_r))

(* ------------------------------------------------------------------ *)
(* banks *)

let test_def_read_banks () =
  let h = Lazy.force hier in
  check "load defines into shared" true
    (Topology.def_bank h Op.Load Topology.Global = Some Topology.Shared);
  check "storer defines into shared" true
    (Topology.def_bank h Op.Store_r (Topology.Cluster 2)
    = Some Topology.Shared);
  check "loadr defines locally" true
    (Topology.def_bank h Op.Load_r (Topology.Cluster 2)
    = Some (Topology.Local 2));
  check "store defines nothing" true
    (Topology.def_bank h Op.Store Topology.Global = None);
  check "store reads shared" true
    (Topology.equal_bank
       (Topology.read_bank h Op.Store Topology.Global)
       Topology.Shared);
  check "loadr reads shared" true
    (Topology.equal_bank
       (Topology.read_bank h Op.Load_r (Topology.Cluster 1))
       Topology.Shared);
  check "compute reads its cluster" true
    (Topology.equal_bank
       (Topology.read_bank h Op.Fmul (Topology.Cluster 3))
       (Topology.Local 3));
  (* monolithic: everything in Local 0 *)
  let m = Lazy.force mono in
  check "monolithic load defines Local 0" true
    (Topology.def_bank m Op.Load (Topology.Cluster 0)
    = Some (Topology.Local 0))

(* ------------------------------------------------------------------ *)
(* comm paths *)

let test_comm_paths () =
  let h = Lazy.force hier in
  check_int "local->shared is one StoreR" 1
    (List.length
       (Topology.comm_path h ~src_bank:(Topology.Local 0)
          ~dst_bank:Topology.Shared));
  check_int "shared->local is one LoadR" 1
    (List.length
       (Topology.comm_path h ~src_bank:Topology.Shared
          ~dst_bank:(Topology.Local 2)));
  check_int "local->local is StoreR + LoadR" 2
    (List.length
       (Topology.comm_path h ~src_bank:(Topology.Local 0)
          ~dst_bank:(Topology.Local 1)));
  check "same bank: nothing" true
    (Topology.comm_path h ~src_bank:(Topology.Local 1)
       ~dst_bank:(Topology.Local 1)
    = []);
  let f = Lazy.force flat in
  (match
     Topology.comm_path f ~src_bank:(Topology.Local 0)
       ~dst_bank:(Topology.Local 3)
   with
  | [ (Op.Move, Topology.Cluster 3) ] -> ()
  | _ -> Alcotest.fail "clustered cross-bank should be one Move")

let test_units () =
  let h = Lazy.force hier in
  check "1 FU per cluster at 8/8... (4 clusters of 8 FUs -> 2)" true
    (Topology.units h (Topology.Fu 0) = Cap.Finite 2);
  check "global memory pool" true
    (Topology.units h (Topology.Mem 0) = Cap.Finite 4);
  check "lp ports" true (Topology.units h (Topology.Lp 1) = Cap.Finite 2);
  check "sp ports" true (Topology.units h (Topology.Sp 1) = Cap.Finite 1);
  let f = Lazy.force flat in
  check "clustered mem ports distributed" true
    (Topology.units f (Topology.Mem 2) = Cap.Finite 1)

let test_move_uses_source_port () =
  let f = Lazy.force flat in
  let uses =
    Topology.uses f Op.Move (Topology.Cluster 2)
      ~src:(Some (Topology.Local 0))
  in
  check "occupies source sp" true (List.mem_assoc (Topology.Sp 0) uses);
  check "occupies dest lp" true (List.mem_assoc (Topology.Lp 2) uses);
  check "occupies a bus" true (List.mem_assoc Topology.Bus uses)

let test_non_pipelined_occupancy () =
  let m = Lazy.force mono in
  match Topology.uses m Op.Fdiv (Topology.Cluster 0) ~src:None with
  | [ (Topology.Fu 0, dur) ] ->
    check_int "div occupies its FU for its whole latency"
      (Config.op_latency m Op.Fdiv) dur
  | _ -> Alcotest.fail "unexpected reservation shape"

(* ------------------------------------------------------------------ *)
(* the validator catches specific corruptions *)

let scheduled_kernel () =
  let config = Lazy.force hier in
  let loop = Hcrf_workload.Kernels.find "stencil3" in
  match Hcrf_core.Mirs_hc.schedule config loop.Loop.ddg with
  | Ok o -> o
  | Error _ -> Alcotest.fail "no schedule"

let has_issue p issues = List.exists p issues

let test_validate_catches_unscheduled () =
  let o = scheduled_kernel () in
  let v = List.hd (Ddg.nodes o.Hcrf_sched.Engine.graph) in
  Schedule.unplace o.Hcrf_sched.Engine.schedule v;
  check "unscheduled reported" true
    (has_issue
       (function Validate.Unscheduled x -> x = v | _ -> false)
       (Hcrf_core.Mirs_hc.validate o))

let test_validate_catches_dependence () =
  let o = scheduled_kernel () in
  let g = o.Hcrf_sched.Engine.graph in
  let s = o.Hcrf_sched.Engine.schedule in
  (* move a consumer of a loaded value to cycle 0 *)
  let victim =
    List.find
      (fun v ->
        Op.is_compute (Ddg.kind g v)
        && Ddg.operands g v <> []
        && Schedule.cycle_of s v > 0)
      (Ddg.nodes g)
  in
  let loc = Schedule.loc_of s victim in
  Schedule.unplace s victim;
  Schedule.place s g victim ~cycle:0 ~loc;
  check "dependence violation reported" true
    (has_issue
       (function Validate.Dependence_violated _ -> true | _ -> false)
       (Hcrf_core.Mirs_hc.validate o))

let test_validate_catches_bank_mismatch () =
  let o = scheduled_kernel () in
  let g = o.Hcrf_sched.Engine.graph in
  let s = o.Hcrf_sched.Engine.schedule in
  (* move a compute op with a locally-defined operand to another
     cluster without inserting communication *)
  let victim =
    List.find
      (fun v ->
        Op.is_compute (Ddg.kind g v)
        && List.exists
             (fun (e : Ddg.edge) ->
               match Schedule.def_bank s g e.src with
               | Some (Topology.Local _) -> true
               | _ -> false)
             (Ddg.operands g v))
      (Ddg.nodes g)
  in
  let other =
    match Schedule.loc_of s victim with
    | Topology.Cluster c -> Topology.Cluster ((c + 1) mod 4)
    | Topology.Global -> Topology.Cluster 0
  in
  Schedule.unplace s victim;
  Schedule.place s g victim ~cycle:200 ~loc:other;
  check "bank mismatch reported" true
    (has_issue
       (function Validate.Bank_mismatch _ -> true | _ -> false)
       (Hcrf_core.Mirs_hc.validate o))

(* A load feeding an add on a two-register monolithic bank, the add
   also reading [invariants] loop invariants; the load's value lives
   [gap] cycles at II 1.  The checker must count the invariants itself:
   nothing but the schedule and the graph is passed in. *)
let tiny_bank ~invariants ~gap =
  let config = Hcrf_model.Presets.of_notation "S2" in
  let g = Ddg.create () in
  let ld = Ddg.add_node g Op.Load in
  let add = Ddg.add_node g Op.Fadd in
  Ddg.add_edge g ~dep:Dep.True ld add;
  for _ = 1 to invariants do
    ignore (Ddg.add_invariant g ~consumers:[ add ])
  done;
  let s = Schedule.create config ~ii:1 in
  let born = Latency.of_def s.Schedule.lat ~id:ld ~kind:Op.Load in
  Schedule.place s g ld ~cycle:0 ~loc:(Topology.Cluster 0);
  Schedule.place s g add ~cycle:(born + gap) ~loc:(Topology.Cluster 0);
  (s, g)

let test_validate_catches_resident_overflow () =
  let s, g = tiny_bank ~invariants:3 ~gap:0 in
  check "no value holds a register" true
    (Lifetimes.pressure ~ii:1 ~bank:(Topology.Local 0)
       (Lifetimes.of_schedule s g)
     = 0);
  check "three residents overflow two registers" true
    (has_issue
       (function
         | Validate.Over_capacity (Topology.Local 0, 3, 2) -> true
         | _ -> false)
       (Validate.check s g))

let test_validate_allocates_beside_residents () =
  let s, g = tiny_bank ~invariants:2 ~gap:1 in
  check "the value alone allocates in the whole bank" true
    (Regalloc.allocate_bank ~ii:1 ~bank:(Topology.Local 0)
       ~capacity:(Cap.Finite 2) (Lifetimes.of_schedule s g)
     <> None);
  check "but not beside two residents" true
    (has_issue
       (function
         | Validate.Allocation_failed (Topology.Local 0) -> true | _ -> false)
       (Validate.check s g))

(* Topology owns the dense codes; each decodes to what it encodes. *)
let test_codes_round_trip () =
  let h = Lazy.force hier in
  check_int "bank codes" 5 (Topology.bank_codes h);
  List.iter
    (fun b ->
      check "bank code round trip" true
        (Topology.equal_bank b
           (Topology.bank_of_code h (Topology.bank_code h b))))
    (Topology.all_banks h);
  check_int "global code" (-1) (Topology.loc_code Topology.Global);
  List.iter
    (fun loc ->
      check "location code round trip" true
        (Topology.equal_loc loc
           (Topology.loc_of_code (Topology.loc_code loc))))
    (Topology.Global :: Topology.exec_locs h Op.Fadd);
  check "global faces the shared bank" true
    (Topology.facing_bank Topology.Global = Topology.Shared);
  check "a cluster faces its own bank" true
    (Topology.facing_bank (Topology.Cluster 2) = Topology.Local 2)

let tests =
  [
    ("topology: dense codes", `Quick, test_codes_round_trip);
    ("topology: exec locations", `Quick, test_exec_locs);
    ("topology: def/read banks", `Quick, test_def_read_banks);
    ("topology: comm paths", `Quick, test_comm_paths);
    ("topology: units", `Quick, test_units);
    ("topology: move ports", `Quick, test_move_uses_source_port);
    ("topology: non-pipelined", `Quick, test_non_pipelined_occupancy);
    ("validate: unscheduled", `Quick, test_validate_catches_unscheduled);
    ("validate: dependence", `Quick, test_validate_catches_dependence);
    ("validate: bank mismatch", `Quick, test_validate_catches_bank_mismatch);
    ("validate: resident invariants overflow a bank", `Quick,
     test_validate_catches_resident_overflow);
    ("validate: allocation leaves room for residents", `Quick,
     test_validate_allocates_beside_residents);
  ]
