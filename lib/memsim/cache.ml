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
  mutable hits : int;
  mutable misses : int;
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
    hits = 0;
    misses = 0;
  }

let line_addr t addr = addr asr t.line_shift
let set_of t addr = line_addr t addr land (t.sets - 1)
let tag_of t addr = line_addr t addr asr t.set_shift

(** Access line address [line] ({!line_addr}); returns [true] on hit.
    Allocates on miss (write-allocate for stores as well).  Inlined into
    {!Sim.run}'s loop, which probes once per simulated access. *)
let[@inline] access_line t line =
  let base = (line land (t.sets - 1)) * t.assoc
  and tag = line asr t.set_shift in
  t.stamp <- t.stamp + 1;
  let w = ref 0 in
  while !w < t.assoc && t.tags.(base + !w) <> tag do incr w done;
  if !w < t.assoc then begin
    t.lru.(base + !w) <- t.stamp;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    (* evict LRU way *)
    let victim = ref 0 in
    for w = 1 to t.assoc - 1 do
      if t.lru.(base + w) < t.lru.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.lru.(base + !victim) <- t.stamp;
    t.misses <- t.misses + 1;
    false
  end

let access t addr = access_line t (line_addr t addr)

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0
