(** Self-contained reproducers for fuzzing failures.

    A reproducer is one text file ([*.repro]) that pins everything a
    failing case needs to be replayed: campaign seed and case index,
    the parameter/config/options preset names, the exact machine knobs
    that the shrinker may have reduced (FU and port counts, the full
    latency record) and the (possibly shrunk) loop itself — node ids,
    adjacency-list order, id counters, invariants, streams — in a
    versioned line format with a strict parser, so a corpus survives
    unrelated refactors.

    Two informational comments close each file: an [# ocaml:] line
    giving the loop as an OCaml {!Hcrf_ir.Ddg.repr} value, and an
    [# ast:] line giving a frontend {!Hcrf_frontend.Ast} program when
    the loop is expressible as one (verified by recompiling the
    candidate), or the reason it is not. *)

type t = {
  seed : int;          (** campaign seed *)
  case : int;          (** case index within the campaign *)
  params : string;     (** generator parameter preset name *)
  config : string;     (** machine notation, e.g. "4C16S16" *)
  n_fus : int;
  n_mem_ports : int;
  lats : Hcrf_machine.Latencies.t;
  options : string;    (** scheduler options preset name *)
  verdict : Hcrf_obs.Event.fuzz_verdict;  (** failure kind reproduced *)
  detail : string;     (** one-line description of the failure *)
  loop : Hcrf_ir.Loop.t;
}

(** Render [t.loop] as a frontend AST program when expressible;
    [Error reason] otherwise.  Expressible means: an invariant-free
    forest of single-consumer arithmetic over unit-stride array reads
    feeding stores, with no loop-carried or ordering edges, whose
    program recompiles to a loop with the same rendering and the same
    node and edge counts (so a dead node is not expressible). *)
val ast_of_loop : Hcrf_ir.Loop.t -> (string, string) result

val to_string : t -> string
val of_string : string -> (t, string) result

(** [write ~dir t] saves [t] under a deterministic file name
    ("case%04d-%s.repro" from case index and verdict) inside [dir]
    (created if needed) and returns the path. *)
val write : dir:string -> t -> string

val load : string -> (t, string) result

(** Sorted [*.repro] paths under a directory ([] if it is missing). *)
val corpus_files : string -> string list
