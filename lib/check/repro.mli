(** Self-contained reproducers for fuzzing failures.

    A reproducer is one text file ([*.repro]) that pins everything a
    failing case needs to be replayed: campaign seed and case index,
    the parameter/config/options preset names, the exact machine knobs
    that the shrinker may have reduced (FU and port counts, the full
    latency record) and the (possibly shrunk) loop itself — node ids,
    adjacency-list order, id counters, invariants, streams — in a
    versioned line format with a strict parser, so a corpus survives
    unrelated refactors. *)

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

val to_string : t -> string
val of_string : string -> (t, string) result

(** [write ~dir t] saves [t] under a deterministic file name
    ("case%04d-%s.repro" from case index and verdict) inside [dir]
    (created if needed) and returns the path. *)
val write : dir:string -> t -> string

(** [Error] on an unreadable or malformed file, including a loop whose
    node ids are not compact ({!Hcrf_ir.Ddg.compact}, checked before
    its graph is built): building and replaying it would size the
    graph's and the scheduler's tables by its largest id. *)
val load : string -> (t, string) result

(** Sorted [*.repro] paths under a directory ([] if it is missing). *)
val corpus_files : string -> string list
