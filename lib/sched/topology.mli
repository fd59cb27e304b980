(** Operational semantics of the register-file organizations.

    This module answers, for a given {!Hcrf_machine.Config.t}: where can
    an operation execute, which bank receives the value it defines, from
    which bank does it read its operands, which hardware resources does
    it occupy, and which communication operations are needed to move a
    value between two banks.

    Conventions:
    - in a monolithic RF everything executes in the single cluster 0 and
      every value lives in bank [Local 0];
    - in a clustered RF ([xCy]) both FUs and memory ports are
      distributed: all operations execute in some cluster and define
      into its bank; cross-cluster flow needs a [Move];
    - in a hierarchical RF ([xCy-Sz]) compute and LoadR/StoreR
      operations execute in a cluster; memory operations execute
      globally on the memory ports and exchange values with the [Shared]
      bank;
    - a bank with an explicit access-port constraint additionally owns
      [Rd]/[Wr] resources: every register read (one per operand) and
      every write-back reserves a port of the touched bank for one
      cycle.  Unconstrained banks own no such rows, so legacy
      configurations keep their exact legacy resource model. *)

type loc = Global | Cluster of int

val equal_loc : loc -> loc -> bool
val pp_loc : Format.formatter -> loc -> unit

type bank = Local of int | Shared

val equal_bank : bank -> bank -> bool
val pp_bank : Format.formatter -> bank -> unit

type resource =
  | Fu of int   (** FU issue slots of cluster i *)
  | Mem of int  (** memory ports (per cluster when clustered, else pool 0) *)
  | Lp of int   (** input ports of bank i (LoadR / incoming move) *)
  | Sp of int   (** output ports of bank i (LoadR / outgoing move) *)
  | Bus         (** inter-cluster buses (clustered RF) *)
  | Rd of int   (** read ports of the bank with code i (constrained banks) *)
  | Wr of int   (** write ports of the bank with code i *)

val pp_resource : Format.formatter -> resource -> unit

(** Dense bank code: [Local i -> i], [Shared -> clusters] — the index
    space of the [Rd]/[Wr] resources and of the scheduler's flat
    per-bank arrays. *)
val bank_code : Hcrf_machine.Config.t -> bank -> int

val bank_of_code : Hcrf_machine.Config.t -> int -> bank

(** Number of bank codes: [0 .. bank_codes c - 1]. *)
val bank_codes : Hcrf_machine.Config.t -> int

(** Dense location code: [Global -> -1], [Cluster i -> i]; the
    schedule's location column and the exact search's assignments. *)
val loc_code : loc -> int

val loc_of_code : int -> loc

(** The bank a location faces: [Cluster i]'s own bank [Local i], and
    the shared bank for [Global] (the memory ports). *)
val facing_bank : loc -> bank

(** Access-port constraint of a bank; [None] means uniformly provisioned
    (no [Rd]/[Wr] rows exist for it). *)
val bank_access :
  Hcrf_machine.Config.t -> bank -> Hcrf_machine.Rf.access option

(** Banks of the organization, in bank-code order. *)
val all_banks : Hcrf_machine.Config.t -> bank list

(** Available units of a resource. *)
val units : Hcrf_machine.Config.t -> resource -> Hcrf_machine.Cap.t

(** All resources that exist in the configuration (for reservation-table
    sizing and validation). *)
val all_resources : Hcrf_machine.Config.t -> resource list

(** Candidate execution locations for an operation kind (empty when the
    kind does not exist in the organization, e.g. LoadR in a flat
    clustered RF). *)
val exec_locs : Hcrf_machine.Config.t -> Hcrf_ir.Op.kind -> loc list

(** Bank receiving the value defined by the kind executed at [loc];
    [None] when the operation defines no value. *)
val def_bank :
  Hcrf_machine.Config.t -> Hcrf_ir.Op.kind -> loc -> bank option

(** Bank an operation reads its register operands from.  A [Move] is
    special: it reads whichever local bank its producer is in. *)
val read_bank : Hcrf_machine.Config.t -> Hcrf_ir.Op.kind -> loc -> bank

(** Register operands the kind reads from a bank (one read port each). *)
val read_arity : Hcrf_ir.Op.kind -> int

(** Resources occupied by executing the kind at [loc], as (resource,
    consecutive cycles from issue) pairs.  [src] is the operand's bank —
    required for [Move], which occupies the source bank's output port.
    The same resource may appear in several entries (a two-operand read
    of one constrained bank); the reservation tables account such
    entries jointly. *)
val uses :
  Hcrf_machine.Config.t -> Hcrf_ir.Op.kind -> loc -> src:bank option ->
  (resource * int) list

val bank_capacity : Hcrf_machine.Config.t -> bank -> Hcrf_machine.Cap.t

(** The copy that brings a value defined in a local bank up to the
    shared bank (a StoreR in the bank's cluster), and the copy that
    delivers a value from the shared bank into a local bank (a LoadR in
    the bank's cluster); in a clustered RF the down copy is a Move from
    another local bank.  Both raise [Invalid_argument] for a bank with
    no such copy. *)
val up_copy : Hcrf_machine.Config.t -> bank -> Hcrf_ir.Op.kind * loc
val down_copy : Hcrf_machine.Config.t -> bank -> Hcrf_ir.Op.kind * loc

(** Communication operations needed to make a value defined in
    [src_bank] readable from [dst_bank]: the copy chain of {!up_copy}
    and {!down_copy} through the shared bank, empty when the banks
    match. *)
val comm_path :
  Hcrf_machine.Config.t -> src_bank:bank -> dst_bank:bank ->
  (Hcrf_ir.Op.kind * loc) list
