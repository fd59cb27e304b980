(** Canonical fingerprints of scheduling inputs (see the interface).

    Every fingerprint is the MD5 of one {!Hcrf_ir.Transcript}.  Labels,
    combinations, configurations and options open with a head tag
    naming the kind of digest, then write the value's fields in a fixed
    order as tagged varint parts.  A loop's fingerprint is the key the
    loop carries ({!Hcrf_ir.Loop.key}). *)

open Hcrf_ir
module T = Transcript

type t = string (* raw 16-byte MD5 *)

let equal = String.equal
let compare = String.compare

let to_hex t = Digest.to_hex t

let of_string s =
  let w = T.create (String.length s + 8) in
  T.tag w 'L';
  T.string w s;
  T.digest w

(* Parts are 16-byte digests, each prefixed by its length: a nested
   combination is one part, so it never reads as its flattened list. *)
let combine ts =
  let w = T.create ((17 * List.length ts) + 1) in
  T.tag w 'C';
  List.iter (T.string w) ts;
  T.digest w

let of_loop = Loop.key

(* ------------------------------------------------------------------ *)
(* Machine configurations                                              *)

let put_cap w = function
  | Hcrf_machine.Cap.Inf -> T.tag w 'i'
  | Finite n -> T.tag w 'n'; T.int w n

(* The generalized fields write a group only when present, each group
   under its own tag: a legacy (absent-everywhere) organization writes
   no group, so [@rinfwinf] keeps the legacy digest.  Groups close the
   transcript (the register file is its last field), so a reader sees
   either a group's tag or the end, never an int it could mistake for
   one. *)
let put_access w tag a =
  match Hcrf_machine.Rf.norm_access a with
  | None -> ()
  | Some a ->
    T.tag w tag;
    put_cap w a.pr;
    put_cap w a.pw

let put_rf w (rf : Hcrf_machine.Rf.t) =
  match rf with
  | Monolithic { regs; access } ->
    T.tag w 'm';
    put_cap w regs;
    put_access w 'l' access
  | Clustered { clusters; regs_per_bank; lp; sp; buses; access } ->
    T.tag w 'c';
    T.int w clusters;
    put_cap w regs_per_bank;
    put_cap w lp;
    put_cap w sp;
    put_cap w buses;
    put_access w 'l' access
  | Hierarchical
      { clusters; regs_per_bank; shared_regs; lp; sp; local_access;
        shared_access } ->
    T.tag w 'h';
    T.int w clusters;
    put_cap w regs_per_bank;
    put_cap w shared_regs;
    put_cap w lp;
    put_cap w sp;
    put_access w 'l' local_access;
    put_access w 's' shared_access

let of_config (c : Hcrf_machine.Config.t) =
  let l = c.Hcrf_machine.Config.lats in
  let w = T.create 64 in
  T.tag w 'M';
  T.int w c.Hcrf_machine.Config.n_fus;
  T.int w c.Hcrf_machine.Config.n_mem_ports;
  T.int w l.Hcrf_machine.Latencies.fadd;
  T.int w l.Hcrf_machine.Latencies.fmul;
  T.int w l.Hcrf_machine.Latencies.fdiv;
  T.int w l.Hcrf_machine.Latencies.fsqrt;
  T.int w l.Hcrf_machine.Latencies.mem_read;
  T.int w l.Hcrf_machine.Latencies.mem_write;
  T.int w l.Hcrf_machine.Latencies.move;
  T.int w l.Hcrf_machine.Latencies.loadr;
  T.int w l.Hcrf_machine.Latencies.storer;
  T.float w c.Hcrf_machine.Config.cycle_ns;
  T.float w c.Hcrf_machine.Config.miss_ns;
  put_rf w c.Hcrf_machine.Config.rf;
  T.digest w

(* ------------------------------------------------------------------ *)
(* Scheduler options                                                   *)

let of_options (o : Hcrf_sched.Engine.options) =
  let w = T.create 16 in
  T.tag w 'O';
  T.int w o.Hcrf_sched.Engine.budget_ratio;
  T.tag w (if o.Hcrf_sched.Engine.backtracking then 't' else 'f');
  T.tag w
    (match o.Hcrf_sched.Engine.ordering with
    | `Hrms -> 'h'
    | `Topological -> 'o');
  T.digest w
