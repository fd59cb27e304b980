(** The one encoder behind every digest: a writer of self-delimiting
    parts into one growing buffer, and the MD5 of what it wrote.

    A part is a tag byte, an int as a zigzag varint (7 bits a byte,
    high bit set on all but the last, so small ints of either sign
    take one byte), a string prefixed by its length as a varint, or a
    float as its 8 IEEE-754 bytes (little-endian, so [0.] and [-0.]
    differ).  A digest that writes its fields in a fixed order, with
    a distinct tag wherever a constructor or an optional field is
    chosen, can be read back left to right: distinct values never
    share a transcript. *)

type t

(** A writer with room for [n] bytes before it grows. *)
val create : int -> t

val tag : t -> char -> unit
val int : t -> int -> unit
val string : t -> string -> unit
val float : t -> float -> unit

(** Raw 16-byte MD5 of the bytes written so far. *)
val digest : t -> string
