(** The executables' one [Logs] setup.

    [Logs] calls its reporter with no lock of its own, and a
    [Logs_fmt] reporter shares one [Format] queue among its callers:
    two worker domains warning at once can corrupt that queue (a
    [Stdlib.Queue.Empty] escapes from the report).  {!setup} therefore
    installs a reporter mutex with the reporter. *)

(** Report warnings and errors to [dst] (default stderr), one report at
    a time across domains. *)
val setup : ?dst:Format.formatter -> unit -> unit
