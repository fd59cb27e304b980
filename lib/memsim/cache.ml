(** Set-associative write-back cache with LRU replacement.

    The paper's real-memory scenario (§6.2) uses a 32 KB lockup-free
    first-level cache with 32-byte lines and up to 8 pending misses; this
    module is the array itself, {!Sim} adds the MSHR/timing model.

    Line size and set count are powers of two, so line, set and tag are
    an arithmetic shift and a mask.  [asr] is floored division by a power
    of two and [land (sets - 1)] the floored remainder, so addresses may
    be negative (a stream reading [y.(i-5)] starts below its array's
    base): address -1 lies in line -1, not line 0, and every set index is
    in [0, sets). *)

type t = {
  line_bytes : int;
  sets : int;
  assoc : int;
  line_shift : int;   (** [line_bytes = 1 lsl line_shift] *)
  set_shift : int;    (** [sets = 1 lsl set_shift] *)
  tags : int array;   (** [set * assoc + way] = tag, [empty] when free *)
  lru : int array;    (** [set * assoc + way] = last-use stamp *)
  mutable stamp : int;
}

(* No address maps to this tag: a tag is an address shifted right by
   [line_shift + set_shift], so it is above [min_int] unless lines and
   sets are both of size 1. *)
let empty = min_int

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go k = if 1 lsl k = x then k else go (k + 1) in
  go 0

let create ?(size_bytes = 32 * 1024) ?(line_bytes = 32) ?(assoc = 2) () =
  if size_bytes <= 0 || line_bytes <= 0 || assoc <= 0 then
    invalid_arg "Cache.create: sizes must be positive";
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line size not a power of two";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  if not (is_pow2 sets) then
    invalid_arg "Cache.create: set count not a power of two";
  {
    line_bytes;
    sets;
    assoc;
    line_shift = log2 line_bytes;
    set_shift = log2 sets;
    tags = Array.make (sets * assoc) empty;
    lru = Array.make (sets * assoc) 0;
    stamp = 0;
  }

let line_addr t addr = addr asr t.line_shift

(** Probe line address [line] ({!line_addr}) with a fresh stamp;
    [true] on hit.  A miss replaces the least recently used way (the
    first of equal stamps): write-allocate for stores as well.  This is
    the one probe: {!Sim.run} inlines it into its loop under the default
    release profile.  The accesses skip the bounds checks: every index
    lies in one set's ways, [base] to [base + assoc - 1], below
    [sets * assoc], and [create] makes [tags] and [lru] that long, which
    the private type keeps true of every [t]. *)
let[@inline] probe t line =
  let stamp = t.stamp + 1 and tags = t.tags and lru = t.lru in
  t.stamp <- stamp;
  let base = (line land (t.sets - 1)) * t.assoc
  and tag = line asr t.set_shift in
  let stop = base + t.assoc in
  let w = ref base in
  while !w < stop && Array.unsafe_get tags !w <> tag do incr w done;
  if !w < stop then begin
    Array.unsafe_set lru !w stamp;
    true
  end
  else begin
    let victim = ref base in
    for w = base + 1 to stop - 1 do
      if Array.unsafe_get lru w < Array.unsafe_get lru !victim then victim := w
    done;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set lru !victim stamp;
    false
  end

let access t addr = probe t (line_addr t addr)
