(** Deterministic frontend programs for incremental-evaluation
    experiments: a program is a list of kernels (loop-language ASTs)
    that an edit script perturbs one kernel at a time.

    Everything here is a pure function of its arguments — no randomness
    and no clock — so two processes (or a golden test and its
    re-run) always see the same program and the same edits. *)

(** [program ~n] is a program of [n] kernels cycling through six loop
    shapes (daxpy, reduction, stencil, read-modify-write, select,
    sqrt recurrence) with per-index offsets, invariant names and
    trip/entry counts, so kernels are pairwise distinct by
    {!Hcrf_frontend.Ast.digest}.  Invariant names do not reach the
    compiled loop, so compiled loops repeat: the 120 kernels of
    [program ~n:120] compile to 60 distinct loops. *)
val program : n:int -> Hcrf_frontend.Ast.t list

(** [edit ~round ~kernel prog] returns [prog] with kernel [kernel]
    (0-based, wrapped modulo the program length) perturbed: the last
    assignment of its body gains [+ param "edit<round>"], which adds an
    add node fed by a fresh invariant — the compiled loop provably
    changes, every other kernel is untouched. *)
val edit : round:int -> kernel:int -> Hcrf_frontend.Ast.t list ->
  Hcrf_frontend.Ast.t list
