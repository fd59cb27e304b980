(** Drivers reproducing every table and figure of the paper's
    evaluation, plus ablations of the scheduler's design choices.
    [bench/main.exe] ties them together; EXPERIMENTS.md records
    measured-vs-published values. *)

open Hcrf_sched

(** Figure 1: (config name, IPC) for the 4+2 .. 12+6 resource sweep.
    Every driver below takes one [?ctx] ({!Runner.Ctx.t}) carrying the
    engine options, schedule cache, job count and tracer: [ctx.jobs] > 1
    fans the per-loop work out over a domain pool ({!Par}) with
    deterministic results at any job count, and [ctx.cache] memoizes
    per-loop outcomes without changing any result.  The drivers that
    sweep engine options directly (table 4, figure 4, ablations) use
    [ctx.jobs] and [ctx.tracer] but bypass the cache and [ctx.opts].
    Experiments with a fixed memory scenario (table 6, figure 6)
    override [ctx.scenario]. *)
val figure1 :
  ?ctx:Runner.Ctx.t -> loops:Hcrf_ir.Loop.t list -> unit ->
  (string * float) list

val pp_figure1 : Format.formatter -> (string * float) list -> unit

type table1_row = {
  t1_config : string;
  t1_shares : (Classify.bound * float * float) list;
      (** bound, % of loops, execution cycles *)
  t1_total_cycles : float;
}

(** The equal-capacity configurations of Table 1 (S128, 4C32, and
    1C64S64 scheduled with the §4 port counts). *)
val table1_configs : unit -> Hcrf_machine.Config.t list

val table1 :
  ?ctx:Runner.Ctx.t -> loops:Hcrf_ir.Loop.t list -> unit ->
  table1_row list
val pp_table1 : Format.formatter -> table1_row list -> unit

type hw_row = {
  hw_notation : string;
  lp_sp : int * int;
  model_access_c : float;
  model_access_s : float option;
  model_area_total : float;
  model_depth : int;
  model_clock : float;
  model_mem_lat : int;
  model_fu_lat : int;
  published : Hcrf_model.Hw_table.row;
}

(** Analytic model vs one published row. *)
val hw_row : Hcrf_model.Hw_table.row -> hw_row

val table2 : unit -> hw_row list
val table5 : unit -> hw_row list
val pp_hw_rows : title:string -> Format.formatter -> hw_row list -> unit

type table3_row = {
  t3_config : string;
  t3_unbounded : float * int * float;  (** %MII, ΣII, scheduler seconds *)
  t3_bounded : float * int * float;
}

val table3 :
  ?ctx:Runner.Ctx.t -> loops:Hcrf_ir.Loop.t list -> unit ->
  table3_row list
val pp_table3 : Format.formatter -> table3_row list -> unit

type table4 = {
  t4_better : int * int * int;  (** loops, ΣII noniter, ΣII mirs_hc *)
  t4_equal : int * int * int;
  t4_worse : int * int * int;
}

val table4 :
  ?config:Hcrf_machine.Config.t -> ?ctx:Runner.Ctx.t ->
  loops:Hcrf_ir.Loop.t list -> unit -> table4
val pp_table4 : Format.formatter -> table4 -> unit

type figure4_row = {
  f4_clusters : int;
  f4_lp_cdf : (int * float) list;  (** ports k, % of loops needing <= k *)
  f4_sp_cdf : (int * float) list;
}

(** Average per-bank port demand of a scheduled loop (the paper's
    metric). *)
val port_demand : Engine.outcome -> clusters:int -> int * int

val figure4 :
  ?max_lp:int -> ?max_sp:int -> ?ctx:Runner.Ctx.t ->
  loops:Hcrf_ir.Loop.t list -> unit -> figure4_row list
val pp_figure4 : Format.formatter -> figure4_row list -> unit

type ablation_row = {
  a_name : string;
  a_sum_ii : int;
  a_pct_mii : float;
  a_failed : int;  (** loops the variant could not schedule *)
  a_seconds : float;
}

(** Scheduler ablations: full engine vs no-backtracking, topological
    ordering, and Budget-ratio variants. *)
val ablations :
  ?config:Hcrf_machine.Config.t -> ?ctx:Runner.Ctx.t ->
  loops:Hcrf_ir.Loop.t list -> unit -> ablation_row list
val pp_ablations : Format.formatter -> ablation_row list -> unit

type scarcity_row = {
  sc_access : (int * int) option;
      (** per-bank (read, write) ports; [None] is unbounded *)
  sc_flat_sum_ii : int;
  sc_flat_seconds : float;
  sc_hier_sum_ii : int;
  sc_hier_seconds : float;
  sc_speedup : float;  (** flat time / hierarchical time (>1 = hier wins) *)
}

(** The access-port ladder {!port_scarcity} walks down, richest first. *)
val scarcity_ladder : (int * int) option list

(** [rf_with_access rf acc]: [rf] with a uniform (read, write)
    access-port budget on every first-level bank ([None]: unbounded). *)
val rf_with_access :
  Hcrf_machine.Rf.t -> (int * int) option -> Hcrf_machine.Rf.t

(** Sweep uniform per-bank access ports down {!scarcity_ladder} on a
    flat clustered organization (default ["4C32"]) and its hierarchical
    rival (default ["4C16S16"]), both through the analytic model, and
    compare end-to-end execution time per point. *)
val port_scarcity :
  ?flat:string -> ?hier:string -> ?ctx:Runner.Ctx.t ->
  loops:Hcrf_ir.Loop.t list -> unit -> scarcity_row list

(** First ladder point (walking richest to scarcest) where the
    hierarchy wins on execution time; [None] when the flat organization
    wins at every swept port count. *)
val scarcity_crossover : scarcity_row list -> (int * int) option option

val pp_port_scarcity : Format.formatter -> scarcity_row list -> unit

type perf_row = {
  p_config : string;
  p_exec_cycles : float;
  p_useful : float;
  p_stall : float;
  p_traffic : float;
  p_exec_seconds : float;
  p_rel_time : float;  (** execution time relative to S64 *)
  p_speedup : float;
}

(** [scenario] overrides [ctx.scenario]. *)
val perf_rows :
  ?ctx:Runner.Ctx.t -> scenario:Runner.memory_scenario ->
  configs:Hcrf_machine.Config.t list -> loops:Hcrf_ir.Loop.t list ->
  unit -> perf_row list

val table6 :
  ?ctx:Runner.Ctx.t -> loops:Hcrf_ir.Loop.t list -> unit ->
  perf_row list
val pp_table6 : Format.formatter -> perf_row list -> unit

val figure6_configs : unit -> Hcrf_machine.Config.t list

(** Per config: (name, (useful, stall) cycles, (useful, stall) time),
    relative to the useful cycles/time of S64. *)
val figure6 :
  ?ctx:Runner.Ctx.t -> loops:Hcrf_ir.Loop.t list -> unit ->
  (string * (float * float) * (float * float)) list

val pp_figure6 :
  Format.formatter ->
  (string * (float * float) * (float * float)) list -> unit
