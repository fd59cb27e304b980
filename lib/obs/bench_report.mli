(** The [hcrf-bench/1] report: one JSON document of benchmark runs,
    written by [bench/main.exe json] and by [hcrf_explore ports],
    [serve-bench] and [incr] with [--json].  Every run carries the same
    keys (plus [sum_ii]/[pct_at_mii] when the run records them), so the
    documents stay machine-comparable with the committed [BENCH_*.json]
    files. *)

type run = {
  config : string;
  loops : int;
  jobs : int;
  sum_ii : (int * float) option;  (** ΣII and % of loops at MII *)
  cold_wall_s : float;
  warm_wall_s : float;
  phase_ns : (string * int) list;  (** per-phase wall-clock sums *)
}

val to_string : run list -> string

(** Write {!to_string} to a file. *)
val write : string -> run list -> unit
