(** Reference text encoder of {!Hcrf_cache.Fingerprint} (the
    part-list implementation used before the one-buffer writer), kept
    as the executable specification: every label, combination,
    configuration and options digest must be byte-identical to what
    this computes, and "fingerprint: one-buffer encoder = reference" in
    [test_cache.ml] checks it.  Digests are raw 16-byte MD5 strings. *)

(* Unambiguous encoding: each part is length-prefixed before
   concatenation, so part boundaries cannot be confused. *)
let digest parts =
  Digest.string
    (String.concat ""
       (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts))

let of_string s = digest [ "label"; s ]
let combine ts = digest ("combine" :: ts)

let int i = string_of_int i
let float f = Printf.sprintf "%h" f
let bool b = if b then "t" else "f"

let cap = function Hcrf_machine.Cap.Inf -> "inf" | Finite n -> int n

let access_parts tag a =
  match Hcrf_machine.Rf.norm_access a with
  | None -> []
  | Some a -> [ tag; cap a.pr; cap a.pw ]

let l3_parts = function
  | None -> []
  | Some (l : Hcrf_machine.Rf.level3) ->
    [ "l3"; cap l.l3_regs; cap l.l3_lp; cap l.l3_sp ]
    @ access_parts "tacc" l.l3_access

let rf_parts (rf : Hcrf_machine.Rf.t) =
  match rf with
  | Monolithic { regs; access } ->
    [ "mono"; cap regs ] @ access_parts "lacc" access
  | Clustered { clusters; regs_per_bank; lp; sp; buses; access } ->
    [ "clustered"; int clusters; cap regs_per_bank; cap lp; cap sp;
      cap buses ]
    @ access_parts "lacc" access
  | Hierarchical
      { clusters; regs_per_bank; shared_regs; lp; sp; local_access;
        shared_access; l3 } ->
    [ "hier"; int clusters; cap regs_per_bank; cap shared_regs; cap lp;
      cap sp ]
    @ l3_parts l3
    @ access_parts "lacc" local_access
    @ access_parts "sacc" shared_access

let of_config (c : Hcrf_machine.Config.t) =
  let l = c.Hcrf_machine.Config.lats in
  digest
    ([ "config"; int c.Hcrf_machine.Config.n_fus;
       int c.Hcrf_machine.Config.n_mem_ports ]
    @ rf_parts c.Hcrf_machine.Config.rf
    @ [ int l.Hcrf_machine.Latencies.fadd; int l.Hcrf_machine.Latencies.fmul;
        int l.Hcrf_machine.Latencies.fdiv;
        int l.Hcrf_machine.Latencies.fsqrt;
        int l.Hcrf_machine.Latencies.mem_read;
        int l.Hcrf_machine.Latencies.mem_write;
        int l.Hcrf_machine.Latencies.move;
        int l.Hcrf_machine.Latencies.loadr;
        int l.Hcrf_machine.Latencies.storer;
        float c.Hcrf_machine.Config.cycle_ns;
        float c.Hcrf_machine.Config.miss_ns ])

let of_options (o : Hcrf_sched.Engine.options) =
  digest
    [ "options"; int o.Hcrf_sched.Engine.budget_ratio;
      (match o.Hcrf_sched.Engine.max_ii with None -> "-" | Some i -> int i);
      bool o.Hcrf_sched.Engine.backtracking;
      (match o.Hcrf_sched.Engine.ordering with
      | `Hrms -> "hrms"
      | `Topological -> "topo") ]
