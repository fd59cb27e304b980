(** Set-associative write-back cache with LRU replacement.

    The paper's real-memory scenario (§6.2) uses a 32 KB lockup-free
    first-level cache with 32-byte lines and up to 8 pending misses; this
    module is the array itself, {!Sim} adds the MSHR/timing model.

    Addresses may be negative (a stream reading [y.(i-5)] starts below
    its array's base): line, set and tag use floored division, so
    address -1 lies in line -1, not line 0, and every set index is in
    [0, sets). *)

type t = {
  line_bytes : int;
  sets : int;
  assoc : int;
  tags : int array;   (** [set * assoc + way] = tag, [empty] when free *)
  lru : int array;    (** [set * assoc + way] = last-use stamp *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
}

(* No address maps to this tag: it is below [min_int / line_bytes]. *)
let empty = min_int

let create ?(size_bytes = 32 * 1024) ?(line_bytes = 32) ?(assoc = 2) () =
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  {
    line_bytes;
    sets;
    assoc;
    tags = Array.make (sets * assoc) empty;
    lru = Array.make (sets * assoc) 0;
    stamp = 0;
    hits = 0;
    misses = 0;
  }

(* Floored quotient and remainder (the divisors are positive). *)
let fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1
let fmod a b = let m = a mod b in if m < 0 then m + b else m

let line_addr t addr = fdiv addr t.line_bytes
let set_of t addr = fmod (line_addr t addr) t.sets
let tag_of t addr = fdiv (line_addr t addr) t.sets

(** Access line address [line] ({!line_addr}); returns [true] on hit.
    Allocates on miss (write-allocate for stores as well). *)
let access_line t line =
  let base = fmod line t.sets * t.assoc and tag = fdiv line t.sets in
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
