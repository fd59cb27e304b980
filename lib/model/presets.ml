(** Ready-made processor configurations.

    Two construction paths exist for the evaluated configurations:
    {!of_published} uses the paper's published Table 5 hardware constants
    (clock, latencies) so the performance experiments run on exactly the
    published machine; {!of_model} derives everything from the analytic
    {!Cacti} + {!Timing} surrogate, which is what a user exploring a new
    design point would do. *)

open Hcrf_machine

let rf_of ~notation ~lp ~sp =
  match Rf.of_notation notation with
  | Rf.Monolithic _ as m -> m
  | Rf.Clustered c ->
    Rf.Clustered { c with lp = Cap.Finite lp; sp = Cap.Finite sp }
  | Rf.Hierarchical h ->
    Rf.Hierarchical { h with lp = Cap.Finite lp; sp = Cap.Finite sp }

let latencies_of_row (row : Hw_table.row) : Latencies.t =
  {
    fadd = row.fu_latency;
    fmul = row.fu_latency;
    fdiv = Timing.fdiv_latency ~fu_latency:row.fu_latency;
    fsqrt = Timing.fsqrt_latency ~fu_latency:row.fu_latency;
    mem_read = row.mem_latency;
    mem_write = 1;
    move = 1;
    loadr = row.loadr_latency;
    storer = row.loadr_latency;
  }

(** Configuration running at the published Table 5 hardware point. *)
let of_published ?(n_fus = 8) ?(n_mem_ports = 4) (row : Hw_table.row) =
  let rf = rf_of ~notation:row.notation ~lp:row.lp ~sp:row.sp in
  Config.make ~n_fus ~n_mem_ports ~lats:(latencies_of_row row)
    ~cycle_ns:row.clock_ns ~name:row.notation rf

let published notation = of_published (Hw_table.find_exn notation)

(** All 15 configurations of the paper's Table 5/6 evaluation. *)
let table5_configs () = List.map of_published Hw_table.table5

(** Derive a configuration from the analytic technology model. *)
let of_model ?(n_fus = 8) ?(n_mem_ports = 4) rf =
  let draft = Config.make ~n_fus ~n_mem_ports rf in
  let est = Cacti.estimate draft in
  let cycle = Timing.cycle_ns ~access_ns:est.Cacti.local_access_ns in
  let lats =
    Timing.latencies ~access_ns:est.Cacti.local_access_ns
      ~shared_access_ns:est.Cacti.shared_access_ns
  in
  Config.make ~n_fus ~n_mem_ports ~lats ~cycle_ns:cycle rf

(** The configuration a notation names: the published Table-5 hardware
    when it names a published point, the analytic model otherwise. *)
let of_notation ?n_fus ?n_mem_ports notation =
  match Hw_table.find notation with
  | Some row -> of_published ?n_fus ?n_mem_ports row
  | None -> of_model ?n_fus ?n_mem_ports (Rf.of_notation notation)

(** Static-evaluation configurations (Table 3): unbounded registers,
    either unbounded or §4-bounded bandwidth between banks; baseline
    latencies, clock irrelevant. *)
let static_config ?(n_fus = 8) ?(n_mem_ports = 4) ~bounded_bandwidth
    notation =
  let cap b n = if bounded_bandwidth then Cap.Finite n else b in
  let rf =
    match notation with
    | "Sinf" -> Rf.Monolithic { regs = Cap.Inf; access = None }
    | "1CinfSinf" ->
      Rf.Hierarchical
        { clusters = 1; regs_per_bank = Cap.Inf; shared_regs = Cap.Inf;
          lp = cap Cap.Inf 4; sp = cap Cap.Inf 2; local_access = None;
          shared_access = None }
    | "2Cinf" ->
      Rf.Clustered
        { clusters = 2; regs_per_bank = Cap.Inf; lp = cap Cap.Inf 1;
          sp = cap Cap.Inf 1; buses = Cap.Inf; access = None }
    | "2CinfSinf" ->
      Rf.Hierarchical
        { clusters = 2; regs_per_bank = Cap.Inf; shared_regs = Cap.Inf;
          lp = cap Cap.Inf 3; sp = cap Cap.Inf 1; local_access = None;
          shared_access = None }
    | "4Cinf" ->
      Rf.Clustered
        { clusters = 4; regs_per_bank = Cap.Inf; lp = cap Cap.Inf 1;
          sp = cap Cap.Inf 1; buses = Cap.Inf; access = None }
    | "4CinfSinf" ->
      Rf.Hierarchical
        { clusters = 4; regs_per_bank = Cap.Inf; shared_regs = Cap.Inf;
          lp = cap Cap.Inf 2; sp = cap Cap.Inf 1; local_access = None;
          shared_access = None }
    | "8CinfSinf" ->
      Rf.Hierarchical
        { clusters = 8; regs_per_bank = Cap.Inf; shared_regs = Cap.Inf;
          lp = cap Cap.Inf 1; sp = cap Cap.Inf 1; local_access = None;
          shared_access = None }
    | other -> Fmt.invalid_arg "Presets.static_config: unknown %S" other
  in
  Config.make ~n_fus ~n_mem_ports ~name:notation rf

(** Table 3's configuration list, in paper order. *)
let table3_notations =
  [ "Sinf"; "1CinfSinf"; "2Cinf"; "2CinfSinf"; "4Cinf"; "4CinfSinf";
    "8CinfSinf" ]

(** Figure 1's resource sweep: monolithic unbounded RF with x FUs and y
    memory ports for (x, y) in 4+2 .. 12+6. *)
let figure1_configs () =
  List.map
    (fun (f, m) ->
      Config.make ~n_fus:f ~n_mem_ports:m
        ~name:(Fmt.str "%d+%d" f m)
        (Rf.Monolithic { regs = Cap.Inf; access = None }))
    [ (4, 2); (6, 3); (8, 4); (10, 5); (12, 6) ]
