(** CACTI-derived access-time and area model for register files.

    The paper uses CACTI 3.0 [32] with tag logic and TLB removed, at a
    0.10 um minimum drawn gate length.  This is a compact analytic
    surrogate with the classic multi-ported-cell structure: every port
    adds a wordline/bitline pair, so the cell side grows linearly with
    the port count and the array delay grows with the square root of the
    array area.  The coefficients are calibrated against the paper's
    published Table 5 points; `test/test_model.ml` checks the surrogate
    stays within tolerance of every published access time. *)

type bank = {
  regs : int;
  bits : int;   (** register width; the paper's FP registers are 64-bit *)
  ports : int;  (** total read + write ports *)
}

(** Raises [Invalid_argument] on non-positive dimensions. *)
val bank : ?bits:int -> regs:int -> ports:int -> unit -> bank

(** Access time in nanoseconds. *)
val access_time_ns : bank -> float

(** Area in lambda^2 (the paper reports 10^6 lambda^2). *)
val area_lambda2 : bank -> float

val area_mlambda2 : bank -> float

type estimate = {
  local_access_ns : float;
  shared_access_ns : float option;
  total_area_mlambda2 : float;
}

(** Full-configuration estimate.  The configuration's cycle time is set
    by the local (FU-facing) bank; the shared bank only determines the
    LoadR/StoreR latency (§3). *)
val estimate : Hcrf_machine.Config.t -> estimate
