(** CACTI-derived access-time and area model for register files.

    The paper uses CACTI 3.0 [32] with tag logic and TLB removed, at a
    0.10 um minimum drawn gate length.  We implement a compact analytic
    surrogate with the classic multi-ported-cell structure: every port adds
    a wordline/bitline pair, so the cell side grows linearly with the port
    count and the array delay grows with the (square root of the) array
    area.  The coefficients below were calibrated against the paper's
    published Table 5 points; `test/test_model.ml` checks the surrogate
    stays within tolerance of every published access time. *)

type bank = {
  regs : int;
  bits : int;   (** register width; the paper's FP registers are 64-bit *)
  ports : int;  (** total read + write ports *)
}

let bank ?(bits = 64) ~regs ~ports () =
  if regs < 1 || ports < 1 || bits < 1 then invalid_arg "Cacti.bank";
  { regs; bits; ports }

(* Calibrated coefficients (nanoseconds / lambda^2 at 0.10 um). *)
let t_fixed = 0.225       (* sense amp + output driver + latch overhead *)
let t_array = 0.003415    (* delay per sqrt(bit) of array *)
let t_port = 0.0618       (* relative wire-length growth per port *)
let cell_base = 13.8      (* lambda, single-port cell side *)
let cell_per_port = 0.9   (* lambda of cell side per extra port *)
let bank_overhead = 2.0e5 (* lambda^2: decoder, sense amps, drivers *)

(** Access time in nanoseconds. *)
let access_time_ns b =
  t_fixed
  +. t_array
     *. sqrt (float_of_int (b.regs * b.bits))
     *. (1. +. (t_port *. float_of_int b.ports))

(** Area in lambda^2 (the paper reports 10^6 lambda^2). *)
let area_lambda2 b =
  let side = cell_base +. (cell_per_port *. float_of_int b.ports) in
  (float_of_int (b.regs * b.bits) *. side *. side) +. bank_overhead

let area_mlambda2 b = area_lambda2 b /. 1.0e6

(* Banks of a full configuration: [clusters] copies of the local bank,
   and the shared bank when hierarchical. *)
let banks_of_config (c : Hcrf_machine.Config.t) =
  let local =
    bank ~regs:(Hcrf_machine.Cap.to_int_exn (Hcrf_machine.Rf.local_regs c.rf))
      ~ports:(Ports.total (Ports.local_bank c)) ()
  in
  let locals = List.init (Hcrf_machine.Config.clusters c) (fun _ -> local) in
  let shared =
    Option.map
      (fun p ->
        bank
          ~regs:
            (Hcrf_machine.Cap.to_int_exn
               (Hcrf_machine.Rf.shared_regs c.rf))
          ~ports:(Ports.total p) ())
      (Ports.shared_bank c)
  in
  (locals, shared)

type estimate = {
  local_access_ns : float;
  shared_access_ns : float option;
  total_area_mlambda2 : float;
}

(** Full-configuration estimate.  The configuration's cycle time is set by
    the local (FU-facing) bank; the shared bank only determines the
    LoadR/StoreR latency (§3). *)
let estimate c =
  let locals, shared = banks_of_config c in
  let local =
    match locals with
    | b :: _ -> b
    | [] -> assert false
  in
  {
    local_access_ns = access_time_ns local;
    shared_access_ns = Option.map access_time_ns shared;
    total_area_mlambda2 =
      (area_mlambda2 local *. float_of_int (List.length locals))
      +. Option.fold ~none:0. ~some:area_mlambda2 shared;
  }
