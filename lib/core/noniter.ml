(** The non-iterative baseline scheduler of [36] (Zalamea et al.,
    MICRO-33), used by the paper's Table 4 comparison.

    [36] schedules hierarchical (non-clustered) register files with
    register allocation and spilling but *without* the iterative
    backtracking of MIRS_HC: once a node fails to find a slot, the
    partial schedule is discarded and the loop is retried at II + 1.  It
    also uses a plain topological (ASAP) node order rather than the
    HRMS ordering.  Both differences are what Table 4 measures. *)

open Hcrf_ir
open Hcrf_sched

(* Every other option (budget ratio, load-latency override) keeps its
   default.  [Engine.schedule] is one II search under the automatic
   cap: Table 4 compares the two schedulers without the escalation,
   which only [Engine.schedule_escalating] runs. *)
let options : Engine.options =
  { Engine.default_options with backtracking = false; ordering = `Topological }

let schedule ?trace config (g : Ddg.t) =
  Engine.schedule ~opts:options ?trace config g
