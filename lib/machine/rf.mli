(** Register-file organizations and the paper's [xCy-Sz] notation,
    generalized with per-bank access-port constraints.

    [x] is the number of clusters, [y] the registers per first-level
    (distributed) bank and [z] the registers in the shared second-level
    bank.  [lp]/[sp] are the per-bank input (LoadR) and output (StoreR)
    ports between levels — or, for a non-hierarchical clustered RF, the
    per-bank input/output ports of the inter-cluster bus network.

    Every generalized field defaults to absent; an absent field changes
    neither the notation nor the scheduler's resource model, so the
    legacy encodings are a strict subset. *)

(** Explicit per-bank access ports: at most [pr] register reads and
    [pw] register writes per cycle on that bank.  [None] means
    "uniformly provisioned" (the paper's implicit assumption). *)
type access = { pr : Cap.t; pw : Cap.t }

val access : pr:Cap.t -> pw:Cap.t -> access
val equal_access : access -> access -> bool

(** Canonicalize a fully unbounded constraint ([pr = pw = Inf]) to the
    absent field: it constrains nothing, so the explicitly-uniform
    encoding ([@rinfwinf]) and the legacy one must be the same value
    (same notation, same schedules, same cache fingerprints).  The
    constructors and {!of_notation} apply this already. *)
val norm_access : access option -> access option

type org =
  | Monolithic of { regs : Cap.t; access : access option }
      (** a single shared bank feeding all FUs and memory ports ([Sz]) *)
  | Clustered of {
      clusters : int;
      regs_per_bank : Cap.t;
      lp : Cap.t;  (** input ports per bank (bus side) *)
      sp : Cap.t;  (** output ports per bank (bus side) *)
      buses : Cap.t;
      access : access option;  (** per first-level bank *)
    }  (** FUs *and* memory ports distributed over [clusters] ([xCy]) *)
  | Hierarchical of {
      clusters : int;
      regs_per_bank : Cap.t;
      shared_regs : Cap.t;
      lp : Cap.t;  (** LoadR ports: shared -> local, per bank *)
      sp : Cap.t;  (** StoreR ports: local -> shared, per bank *)
      local_access : access option;
      shared_access : access option;
    }  (** first-level banks per cluster + shared bank ([xCy-Sz]);
          [clusters = 1] is the pure hierarchical organization *)

type t = org

val monolithic : ?access:access -> int -> t

(** Raises [Invalid_argument] for fewer than 2 clusters; ports default
    to 1, buses to one per cluster. *)
val clustered :
  ?lp:Cap.t -> ?sp:Cap.t -> ?buses:Cap.t -> ?access:access -> clusters:int ->
  regs_per_bank:int -> unit -> t

val hierarchical :
  ?lp:Cap.t -> ?sp:Cap.t -> ?local_access:access -> ?shared_access:access ->
  clusters:int -> regs_per_bank:int -> shared_regs:int ->
  unit -> t

val clusters : t -> int
val is_hierarchical : t -> bool
val is_clustered : t -> bool

(** Registers in each first-level bank feeding the FUs (the single bank
    for a monolithic RF). *)
val local_regs : t -> Cap.t

val shared_regs : t -> Cap.t

(** Access-port constraint of the first-level banks (the single bank
    for a monolithic RF). *)
val local_access : t -> access option

val shared_access : t -> access option

(** Total storage capacity over all banks. *)
val total_regs : t -> Cap.t

val lp : t -> Cap.t
val sp : t -> Cap.t

(** Paper notation — ["S128"], ["4C32"], ["1C64S64"] — extended with
    the access-port axes: [@r<n>w<n>] constrains the first-level banks'
    access ports, [@Sr<n>w<n>] the shared bank's; ["inf"] stands for an
    unbounded count anywhere.  Example: ["4C16S16@r2w1"]. *)
val notation : t -> string

val pp : Format.formatter -> t -> unit

(** Parse the (extended) notation; inter-level ports default to
    lp=sp=1, every generalized field to absent.  Raises [Failure] on
    malformed input, and on the retired third-level notation ([-L3:]
    segments, [@T] groups) with a message that names it. *)
val of_notation : string -> t

val equal : t -> t -> bool
