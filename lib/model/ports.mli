(** Per-bank access-port counts for each RF organization.

    Following §3 of the paper: each FU needs 2 read + 1 write ports on
    the bank that feeds it, each memory port needs 1 read (store data)
    + 1 write (load result).  In clustered organizations the per-bank
    [lp] input / [sp] output ports of the communication network are
    write / read ports of the bank; in hierarchical organizations the
    shared bank additionally exposes [lp] read and [sp] write ports per
    cluster. *)

type t = { reads : int; writes : int }

val total : t -> int

(** Ports of one first-level (FU-facing) bank.  An explicit
    [@r..w..] access constraint on the configuration overrides the
    derived provisioning.  Raises [Invalid_argument] when the
    configuration's ports are unbounded. *)
val local_bank : Hcrf_machine.Config.t -> t

(** Ports of the shared second-level bank, when the organization has
    one. *)
val shared_bank : Hcrf_machine.Config.t -> t option
