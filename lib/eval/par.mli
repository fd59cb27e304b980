(** Domain-based parallel evaluation of independent per-loop work.

    A fixed pool of [jobs] domains pulls item indices from a
    mutex-protected counter; results are returned in input order, so
    aggregates computed from them are bit-identical to the serial path.
    [jobs <= 1] spawns no domain and degrades to exactly [List.map].
    A worker exception is re-raised in the caller (lowest failing index
    first) after the whole pool is joined — it never hangs the pool. *)

(** [Domain.recommended_domain_count ()]: the default worker count used
    by the benchmark harness when [HCRF_JOBS] is unset. *)
val default_jobs : unit -> int

(** [map ~jobs f items] is [List.map f items], evaluated by [jobs]
    domains. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
