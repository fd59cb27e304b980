(** On-disk persistence for cache entries: one file per entry, named by
    the key's hex fingerprint, sharded into {!shards} subdirectories by
    the key's leading hex nibble.  Sharding spreads concurrent writers
    over independent directories — and lets {!Cache} guard each shard
    with its own mutex instead of one global lock.

    The file format is defensive: a versioned magic header followed by
    an MD5 checksum of the marshalled payload ({!write_sealed}).  A
    truncated, corrupt, garbage or version-stale file fails the header
    or checksum test and is reported as a miss with a {!Logs} warning — never an exception,
    and in particular the unmarshaller is never run on bytes that were
    not written by a matching layout of this module.

    Writes go through a temporary file in the same directory followed by
    an atomic rename, so concurrent processes sharing a cache directory
    can only ever observe complete entries. *)

type t

(** Current on-disk format version (bumped whenever the key scheme, the
    entry schema or the directory layout changes; payload-incompatible
    older files are then skipped as stale). *)
val version : int

(** Number of shard subdirectories (16: one per leading hex nibble). *)
val shards : int

(** Shard index of a key, in [0, shards). *)
val shard_of_key : Fingerprint.t -> int

(** Open (creating it if needed, like [mkdir -p]) a cache directory.
    Returns [None] — with a warning — when the directory cannot be
    created or is not writable; callers degrade to in-memory-only
    caching. *)
val open_dir : string -> t option

val dir : t -> string

(** Sharded path of the entry file for [key] (exposed for tests). *)
val path : t -> key:Fingerprint.t -> string

(** [`Miss] on absence; [`Error] (with a warning) on a truncated,
    corrupt, garbage, version-stale or unreadable file. *)
val load :
  t -> key:Fingerprint.t -> [ `Hit of Entry.t | `Miss | `Error ]

(** [false] — with a warning — when the entry could not be written. *)
val save : t -> key:Fingerprint.t -> Entry.t -> bool

(** {1 Sealed files}

    The one on-disk codec of the repository, shared with the stage
    memo: [magic | MD5 of payload | payload], written through a
    temporary file in the same directory and an atomic rename. *)

(** [Error reason] when the write failed (the temporary file is
    removed). *)
val write_sealed : magic:string -> string -> string -> (unit, string) result

(** The payload of a sealed file; [Error reason] when it is unreadable,
    truncated, carries another magic (another format or version) or
    fails its checksum — the payload is then never returned, so a
    caller never unmarshals bytes a matching writer did not produce. *)
val read_sealed : magic:string -> string -> (string, string) result
