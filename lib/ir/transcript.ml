(* A transcript is one growing byte buffer; every part is
   self-delimiting (see the interface), so the buffer's MD5 is a
   digest of the part sequence. *)

type t = { mutable buf : Bytes.t; mutable pos : int }

let create n = { buf = Bytes.create (max n 16); pos = 0 }

let reserve w n =
  if w.pos + n > Bytes.length w.buf then begin
    let b = Bytes.create (max (w.pos + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 w.pos;
    w.buf <- b
  end

let tag w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.pos c;
  w.pos <- w.pos + 1

(* Zigzag maps ints of small magnitude, negatives included, to small
   naturals; a natural takes 7 bits a byte, high bit set on all but
   the last, so at most 9 bytes for a 63-bit int. *)
let int w n =
  reserve w 9;
  let u = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !u land lnot 0x7f <> 0 do
    Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    w.pos <- w.pos + 1;
    u := !u lsr 7
  done;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr !u);
  w.pos <- w.pos + 1

let string w s =
  let n = String.length s in
  int w n;
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let float w f =
  reserve w 8;
  Bytes.set_int64_le w.buf w.pos (Int64.bits_of_float f);
  w.pos <- w.pos + 8

let digest w = Digest.subbytes w.buf 0 w.pos
