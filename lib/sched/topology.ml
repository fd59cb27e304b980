(** Operational semantics of the register-file organizations.

    This module answers, for a given {!Hcrf_machine.Config.t}: where can an
    operation execute, which bank receives the value it defines, from which
    bank does it read its operands, which hardware resources does it
    occupy, and which communication operations are needed to move a value
    between two banks.

    Conventions:
    - In a monolithic RF everything executes in the single cluster 0 and
      every value lives in bank [Local 0].
    - In a clustered RF ([xCy]) both FUs and memory ports are distributed:
      all operations execute in some cluster and define into its bank;
      cross-cluster flow needs a [Move].
    - In a hierarchical RF ([xCy-Sz]) compute and LoadR/StoreR operations
      execute in a cluster; memory operations execute globally on the
      memory ports and exchange values with the [Shared] bank.
    - A bank with an explicit access-port constraint ([@r..w..] in the
      notation) additionally owns [Rd]/[Wr] resources: every register
      read (one per operand) and every register write-back reserves a
      port of the bank it touches for one cycle. *)

open Hcrf_ir
open Hcrf_machine

type loc = Global | Cluster of int

let equal_loc a b =
  match (a, b) with
  | Global, Global -> true
  | Cluster i, Cluster j -> i = j
  | Global, Cluster _ | Cluster _, Global -> false

let pp_loc ppf = function
  | Global -> Fmt.string ppf "global"
  | Cluster i -> Fmt.pf ppf "c%d" i

type bank = Local of int | Shared

let equal_bank a b =
  match (a, b) with
  | Shared, Shared -> true
  | Local i, Local j -> i = j
  | (Shared | Local _), _ -> false

let pp_bank ppf = function
  | Shared -> Fmt.string ppf "S"
  | Local i -> Fmt.pf ppf "L%d" i

type resource =
  | Fu of int   (** FU issue slots of cluster i *)
  | Mem of int  (** memory ports (per cluster when clustered, else pool 0) *)
  | Lp of int   (** input ports of bank i (LoadR / incoming move) *)
  | Sp of int   (** output ports of bank i (LoadR / outgoing move) *)
  | Bus         (** inter-cluster buses (clustered RF) *)
  | Rd of int   (** read ports of the bank with code i (constrained banks) *)
  | Wr of int   (** write ports of the bank with code i *)

let pp_resource ppf = function
  | Fu i -> Fmt.pf ppf "fu%d" i
  | Mem i -> Fmt.pf ppf "mem%d" i
  | Lp i -> Fmt.pf ppf "lp%d" i
  | Sp i -> Fmt.pf ppf "sp%d" i
  | Bus -> Fmt.string ppf "bus"
  | Rd i -> Fmt.pf ppf "rd%d" i
  | Wr i -> Fmt.pf ppf "wr%d" i

(** Dense bank code: [Local i -> i], [Shared -> clusters] — the index
    space of the [Rd]/[Wr] resources and of every flat per-bank array
    in the scheduler. *)
let bank_code (c : Config.t) = function
  | Local i -> i
  | Shared -> Config.clusters c

let bank_of_code (c : Config.t) i =
  if i = Config.clusters c then Shared else Local i

let bank_codes (c : Config.t) = Config.clusters c + 1

(** Dense location code: [Global -> -1], [Cluster i -> i]. *)
let loc_code = function Global -> -1 | Cluster i -> i

let loc_of_code i = if i < 0 then Global else Cluster i

(** The bank a location faces: a cluster's own bank, or the shared bank
    for the global memory ports. *)
let facing_bank = function Cluster i -> Local i | Global -> Shared

(** Access-port constraint of a bank ([None]: uniformly provisioned,
    no [Rd]/[Wr] rows exist for it). *)
let bank_access (c : Config.t) = function
  | Local _ -> Rf.local_access c.rf
  | Shared -> Rf.shared_access c.rf

(** Available units of a resource. *)
let units (c : Config.t) = function
  | Fu _ -> Cap.Finite (Config.fus_per_cluster c)
  | Mem _ -> Cap.Finite (Config.mem_ports_per_cluster c)
  | Lp _ -> Rf.lp c.rf
  | Sp _ -> Rf.sp c.rf
  | Bus -> (
    match c.rf with
    | Rf.Clustered { buses; _ } -> buses
    | Rf.Monolithic _ | Rf.Hierarchical _ -> Cap.Inf)
  | Rd b -> (
    match bank_access c (bank_of_code c b) with
    | Some a -> a.Rf.pr
    | None -> Cap.Inf)
  | Wr b -> (
    match bank_access c (bank_of_code c b) with
    | Some a -> a.Rf.pw
    | None -> Cap.Inf)

(* Banks of the organization, in bank-code order. *)
let all_banks (c : Config.t) =
  let x = Config.clusters c in
  let locals = List.init x (fun i -> Local i) in
  match c.rf with
  | Rf.Monolithic _ | Rf.Clustered _ -> locals
  | Rf.Hierarchical _ -> locals @ [ Shared ]

(** All resources that exist in the configuration (for validation and
    reservation-table sizing).  The [Rd]/[Wr] rows of access-constrained
    banks come after the legacy ones, and only when configured. *)
let all_resources (c : Config.t) =
  let x = Config.clusters c in
  let clusters f = List.init x f in
  let legacy =
    match c.rf with
    | Rf.Monolithic _ -> [ Fu 0; Mem 0 ]
    | Rf.Clustered _ ->
      clusters (fun i -> Fu i)
      @ clusters (fun i -> Mem i)
      @ clusters (fun i -> Lp i)
      @ clusters (fun i -> Sp i)
      @ [ Bus ]
    | Rf.Hierarchical _ ->
      clusters (fun i -> Fu i)
      @ [ Mem 0 ]
      @ clusters (fun i -> Lp i)
      @ clusters (fun i -> Sp i)
  in
  let ports =
    List.concat_map
      (fun b ->
        if bank_access c b <> None then
          [ Rd (bank_code c b); Wr (bank_code c b) ]
        else [])
      (all_banks c)
  in
  legacy @ ports

(** Candidate execution locations for an operation kind. *)
let exec_locs (c : Config.t) (k : Op.kind) : loc list =
  let x = Config.clusters c in
  let clusters () = List.init x (fun i -> Cluster i) in
  match c.rf with
  | Rf.Monolithic _ -> [ Cluster 0 ]
  | Rf.Clustered _ -> (
    match k with
    | Load_r | Store_r -> [] (* no hierarchy to move through *)
    | Fadd | Fmul | Fdiv | Fsqrt | Load | Store | Move | Spill_load
    | Spill_store -> clusters ())
  | Rf.Hierarchical _ -> (
    match k with
    | Fadd | Fmul | Fdiv | Fsqrt | Move | Load_r | Store_r -> clusters ()
    | Load | Store | Spill_load | Spill_store -> [ Global ])

(** Bank receiving the value defined by kind [k] executed at [loc];
    [None] when the op defines no value. *)
let def_bank (c : Config.t) (k : Op.kind) (loc : loc) : bank option =
  if not (Op.defines_value k) then None
  else
    match (c.rf, k, loc) with
    | Rf.Monolithic _, _, _ -> Some (Local 0)
    | Rf.Clustered _, _, Cluster i -> Some (Local i)
    | Rf.Clustered _, _, Global -> invalid_arg "def_bank: global in clustered"
    | Rf.Hierarchical _, (Load | Spill_load), Global
    | Rf.Hierarchical _, Store_r, Cluster _ ->
      Some Shared
    | Rf.Hierarchical _, (Fadd | Fmul | Fdiv | Fsqrt | Move | Load_r),
      Cluster i ->
      Some (Local i)
    | Rf.Hierarchical _, _, _ ->
      Fmt.invalid_arg "def_bank: %s at %a in hierarchical RF"
        (Op.kind_name k) pp_loc loc

(** Bank an operation reads its operands from. *)
let read_bank (c : Config.t) (k : Op.kind) (loc : loc) : bank =
  match (c.rf, k, loc) with
  | Rf.Monolithic _, _, _ -> Local 0
  | Rf.Clustered _, _, Cluster i -> Local i
  | Rf.Clustered _, _, Global -> invalid_arg "read_bank: global in clustered"
  | Rf.Hierarchical _, (Store | Spill_store | Load_r | Load | Spill_load), _ ->
    (* a LoadR reads the shared bank though it executes in a cluster;
       loads read address regs, not modeled, so their value side is the
       memory-facing bank *)
    Shared
  | Rf.Hierarchical _, (Fadd | Fmul | Fdiv | Fsqrt | Store_r | Move),
    Cluster i ->
    Local i
  | Rf.Hierarchical _, _, _ ->
    Fmt.invalid_arg "read_bank: %s at %a in hierarchical RF"
      (Op.kind_name k) pp_loc loc

(* Register operands read from a bank: a read port per operand. *)
let read_arity = function
  | Op.Fadd | Op.Fmul | Op.Fdiv | Op.Fsqrt -> 2
  | Op.Move | Op.Store_r | Op.Load_r | Op.Store | Op.Spill_store -> 1
  | Op.Load | Op.Spill_load -> 0

(* Rd/Wr reservations of [k] at [loc], only for access-constrained
   banks — absent constraints add no rows, keeping legacy reservation
   vectors (and schedules) bit-identical. *)
let port_uses (c : Config.t) (k : Op.kind) (loc : loc) ~(src : bank option) =
  let reads =
    let n = read_arity k in
    if n = 0 then []
    else
      let rb =
        match (k, src) with Op.Move, Some b -> b | _ -> read_bank c k loc
      in
      match bank_access c rb with
      | None -> []
      | Some _ -> List.init n (fun _ -> (Rd (bank_code c rb), 1))
  in
  let writes =
    match def_bank c k loc with
    | Some b when bank_access c b <> None -> [ (Wr (bank_code c b), 1) ]
    | Some _ | None -> []
  in
  reads @ writes

(** Resources occupied by executing [k] at [loc].  [src] is the bank the
    (single) operand lives in — needed for [Move], which occupies the
    output port of the source bank.  Each entry is (resource, number of
    consecutive cycles occupied starting at the issue cycle); the same
    resource may appear twice (a two-operand read of one constrained
    bank), and the reservation tables account the entries jointly. *)
let uses (c : Config.t) (k : Op.kind) (loc : loc) ~(src : bank option) :
    (resource * int) list =
  let dur = if Latencies.pipelined k then 1 else Config.op_latency c k in
  let cluster_of = function
    | Cluster i -> i
    | Global -> 0
  in
  let base =
    match k with
    | Fadd | Fmul | Fdiv | Fsqrt -> [ (Fu (cluster_of loc), dur) ]
    | Load | Store | Spill_load | Spill_store ->
      [ (Mem (cluster_of loc), 1) ]
    | Load_r -> [ (Lp (cluster_of loc), 1) ]
    | Store_r -> [ (Sp (cluster_of loc), 1) ]
    | Move -> (
      let dst = cluster_of loc in
      match src with
      | Some (Local s) -> [ (Sp s, 1); (Bus, 1); (Lp dst, 1) ]
      | Some Shared | None ->
        invalid_arg "Topology.uses: Move needs a local source bank")
  in
  base @ port_uses c k loc ~src

(** Capacity of a bank. *)
let bank_capacity (c : Config.t) = function
  | Local _ -> Rf.local_regs c.rf
  | Shared -> Rf.shared_regs c.rf

(** The copy that brings a value defined in a local bank up to the
    shared bank: a StoreR in the bank's cluster. *)
let up_copy (_ : Config.t) = function
  | Local i -> (Op.Store_r, Cluster i)
  | Shared -> invalid_arg "Topology.up_copy: no copy up from this bank"

(** The copy that delivers a value from the shared bank into a local
    bank (in a clustered RF, from another local bank): a LoadR or a
    Move. *)
let down_copy (c : Config.t) = function
  | Local j -> (
    match c.rf with
    | Rf.Clustered _ -> (Op.Move, Cluster j)
    | Rf.Monolithic _ | Rf.Hierarchical _ -> (Op.Load_r, Cluster j))
  | Shared -> invalid_arg "Topology.down_copy: no copy down into this bank"

(** Communication operations needed to make a value defined in [src_bank]
    readable from [dst_bank]: a list of (op kind, execution loc) forming a
    copy chain, up to the shared bank and down from it.  Empty when the
    banks match. *)
let comm_path (c : Config.t) ~(src_bank : bank) ~(dst_bank : bank) :
    (Op.kind * loc) list =
  if equal_bank src_bank dst_bank then []
  else
    match (c.rf, src_bank, dst_bank) with
    | Rf.Monolithic _, _, _ -> []
    | Rf.Clustered _, Local _, Local _ -> [ down_copy c dst_bank ]
      (* the Move occupies Sp s via ~src at reservation time *)
    | Rf.Clustered _, _, _ ->
      invalid_arg "comm_path: shared bank in clustered RF"
    | Rf.Hierarchical _, _, _ ->
      let via b f = if equal_bank b Shared then [] else [ f c b ] in
      via src_bank up_copy @ via dst_bank down_copy
