(** MIRS_HC — Modulo scheduling with Integrated Register Spilling for
    Hierarchical Clustered VLIW architectures.

    This is the paper's contribution: a single modulo scheduler that
    simultaneously performs instruction scheduling, cluster selection,
    insertion of inter-bank communication (StoreR/LoadR through the shared
    second-level bank, or Move over the buses of a flat clustered RF),
    register allocation against every bank's capacity, and spill-code
    insertion — iteratively, with force-and-eject backtracking under a
    Budget (§5).

    The same engine degrades gracefully to the earlier members of the
    family: on a monolithic RF it behaves as MIRS [38], on a flat
    clustered RF as MIRS_C [37].  The configuration alone selects the
    behaviour. *)

open Hcrf_ir
open Hcrf_sched

let default_options = Engine.default_options

(** Schedule one loop body for [config].  Returns the complete schedule
    (with all inserted communication and spill operations in
    [outcome.graph]) or [`No_schedule ii] if no II up to the cap
    admitted a schedule. *)
let schedule ?(opts = default_options) ?trace config (g : Ddg.t) =
  Engine.schedule ~opts ?trace config g

(** Validate an outcome with the independent checker. *)
let validate (o : Engine.outcome) =
  Validate.check o.Engine.schedule o.Engine.graph

let is_valid o = validate o = []
