(** Compiler from the loop language to a schedulable {!Hcrf_ir.Loop.t}.

    The pipeline mirrors what the paper's front end provides:
    {!If_convert} first turns conditionals into straight-line selects;
    array reads are CSE'd within an iteration (invalidated by a store to
    the same location); unit-stride dependence analysis inserts the
    memory edges (true flow with distance [k_s - k_l] when a store
    writes what a later iteration loads, anti the other way, ordered
    within the iteration when equal, and output dependences for
    store/store pairs); loop-carried scalars become distance-d register
    flow; a select compiles to two multiplies and a blending add; every
    array reference gets a memory stream for the cache simulator. *)

exception Error of string

val element_bytes : int

(** Compile a loop; raises {!Error} on malformed input (use of an
    undefined scalar, [prev] of a never-defined scalar, ...). *)
val compile : Ast.t -> Hcrf_ir.Loop.t
