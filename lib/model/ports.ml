(** Per-bank access-port counts for each RF organization.

    Following §3 of the paper: each FU needs 2 read + 1 write ports on the
    bank that feeds it, each memory port needs 1 read (store data) + 1
    write (load result).  In clustered organizations the per-bank [lp]
    input / [sp] output ports of the communication network are write /
    read ports of the bank; in hierarchical organizations the shared bank
    additionally exposes [lp] read and [sp] write ports per cluster. *)

open Hcrf_machine

type t = { reads : int; writes : int }

let total p = p.reads + p.writes

let cap_int what c =
  match Cap.to_int_opt c with
  | Some n -> n
  | None -> Fmt.invalid_arg "Ports: %s is unbounded, cannot size hardware" what

(* An explicit [@r..w..] access constraint overrides the derived
   provisioning: the hardware is built with exactly that many ports. *)
let of_access what (a : Rf.access) =
  { reads = cap_int (what ^ ".pr") a.Rf.pr;
    writes = cap_int (what ^ ".pw") a.Rf.pw }

(** Ports of one first-level (FU-facing) bank. *)
let local_bank (c : Config.t) =
  match Rf.local_access c.rf with
  | Some a -> of_access "local access" a
  | None -> (
    let fus = Config.fus_per_cluster c in
    match c.rf with
    | Rf.Monolithic _ ->
      { reads = (2 * c.n_fus) + c.n_mem_ports;
        writes = c.n_fus + c.n_mem_ports }
    | Rf.Clustered { lp; sp; _ } ->
      let mem = Config.mem_ports_per_cluster c in
      { reads = (2 * fus) + mem + cap_int "sp" sp;
        writes = fus + mem + cap_int "lp" lp }
    | Rf.Hierarchical { lp; sp; _ } ->
      { reads = (2 * fus) + cap_int "sp" sp;
        writes = fus + cap_int "lp" lp })

(** Ports of the shared second-level bank, when the organization has
    one. *)
let shared_bank (c : Config.t) =
  match c.rf with
  | Rf.Monolithic _ | Rf.Clustered _ -> None
  | Rf.Hierarchical { clusters; lp; sp; shared_access; _ } ->
    Some
      (match shared_access with
      | Some a -> of_access "shared access" a
      | None ->
        { reads = c.n_mem_ports + (clusters * cap_int "lp" lp);
          writes = c.n_mem_ports + (clusters * cap_int "sp" sp) })
