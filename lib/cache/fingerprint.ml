(** Canonical fingerprints of scheduling inputs (see the interface).

    Labels, configurations and options are MD5 over length-prefixed
    parts, [<decimal length>:<part>] each after a head part naming the
    kind of digest, so no two distinct part sequences share an
    encoding.  One writer emits that text straight into one buffer:
    lengths and ints go in digit by digit, string parts are blitted,
    and no part is built as a string of its own.  A loop is one MD5
    over a varint transcript of its graph in node-id order, with every
    adjacency and attribute list sorted by content: reordering edges,
    streams or invariants leaves it alone, while any node id, kind,
    dependence label, distance, stream or id counter moves it. *)

open Hcrf_ir

type t = string (* raw 16-byte MD5 *)

let equal = String.equal
let compare = String.compare

let to_hex t = Digest.to_hex t
let pp ppf t = Fmt.string ppf (to_hex t)

(* ------------------------------------------------------------------ *)
(* The length-prefixed text writer                                     *)

type writer = { mutable buf : Bytes.t; mutable pos : int }

let reserve w n =
  if w.pos + n > Bytes.length w.buf then begin
    let b = Bytes.create (max (w.pos + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 w.pos;
    w.buf <- b
  end

(* Characters of [string_of_int n].  Digits are taken from the
   non-positive twin of [n], which exists for every int, [min_int]
   included. *)
let width n =
  let rec go m d = if m > -10 then d else go (m / 10) (d + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* [n] in decimal, exactly as [string_of_int] spells it: on the
   non-positive side, [m mod 10] is minus the last digit. *)
let put_dec w n =
  let d = width n in
  reserve w d;
  let m = ref (if n < 0 then n else -n) in
  for i = w.pos + d - 1 downto w.pos + Bool.to_int (n < 0) do
    Bytes.unsafe_set w.buf i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then Bytes.unsafe_set w.buf w.pos '-';
  w.pos <- w.pos + d

let put_colon w =
  reserve w 1;
  Bytes.unsafe_set w.buf w.pos ':';
  w.pos <- w.pos + 1

let put_part w s =
  put_dec w (String.length s);
  put_colon w;
  reserve w (String.length s);
  Bytes.unsafe_blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

let put_int w i =
  put_dec w (width i);
  put_colon w;
  put_dec w i

let part_size s = width (String.length s) + 1 + String.length s

(* A writer opened with its head part, sized for [size] more bytes. *)
let start head size =
  let w = { buf = Bytes.create (part_size head + size); pos = 0 } in
  put_part w head;
  w

let finish w = Digest.subbytes w.buf 0 w.pos

let of_string s =
  let w = start "label" (part_size s) in
  put_part w s;
  finish w

let combine ts =
  let w = start "combine" (List.fold_left (fun n t -> n + part_size t) 0 ts) in
  List.iter (put_part w) ts;
  finish w

(* ------------------------------------------------------------------ *)
(* Loops: one canonical, id-sensitive transcript                       *)

(* The transcript's encoding: ints as zigzag varints (7 bits a byte,
   high bit set on all but the last), lists prefixed by their length.
   Every part is self-delimiting, so distinct transcripts never share
   bytes, and small ints (ids, kinds, distances) take one byte. *)
let add_int b n =
  let u = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !u land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !u)

(* In-place heapsort of the first [k] int triples of [s] (at 0, 3, ...),
   lexicographically: no allocation, and O(k log k) even for a node
   carrying every edge of a request.  Fields are compared one by one,
   never packed into one int: distances and stream bases come from the
   wire and a packed key could overflow. *)
let triple_greater s p q =
  let c = Int.compare s.(p) s.(q) in
  if c <> 0 then c > 0
  else
    let c = Int.compare s.(p + 1) s.(q + 1) in
    if c <> 0 then c > 0 else s.(p + 2) > s.(q + 2)

let swap_triples s p q =
  for d = 0 to 2 do
    let x = s.(p + d) in
    s.(p + d) <- s.(q + d);
    s.(q + d) <- x
  done

let rec sift s i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let m =
      if l + 1 < len && triple_greater s (3 * (l + 1)) (3 * l) then l + 1
      else l
    in
    if triple_greater s (3 * m) (3 * i) then begin
      swap_triples s (3 * i) (3 * m);
      sift s m len
    end
  end

let sort_triples s k =
  for i = (k / 2) - 1 downto 0 do sift s i k done;
  for last = k - 1 downto 1 do
    swap_triples s 0 (3 * last);
    sift s 0 last
  done

(* Write a list's elements as sorted triples, count first; [put s p x]
   stores [x]'s triple at [s.(p)], [s.(p + 1)], [s.(p + 2)]. *)
let add_triples b scratch put l =
  let k = List.length l in
  if 3 * k > Array.length !scratch then scratch := Array.make (6 * k) 0;
  let s = !scratch in
  List.iteri (fun i x -> put s (3 * i) x) l;
  sort_triples s k;
  add_int b k;
  for i = 0 to (3 * k) - 1 do add_int b s.(i) done

(* Codes spelled out, so the transcript never depends on the
   declaration order of [Op.kind] or [Dep.t]. *)
let kind_code : Op.kind -> int = function
  | Fadd -> 0 | Fmul -> 1 | Fdiv -> 2 | Fsqrt -> 3 | Load -> 4 | Store -> 5
  | Move -> 6 | Load_r -> 7 | Store_r -> 8 | Spill_load -> 9
  | Spill_store -> 10

let dep_code : Dep.t -> int = function True -> 0 | Anti -> 1 | Output -> 2

let of_loop (l : Loop.t) =
  let g = l.Loop.ddg in
  let b = Buffer.create 256 in
  let scratch = ref (Array.make 48 0) in
  add_int b (Ddg.num_nodes g);
  Ddg.iter_nodes g (fun v ->
      add_int b v.Ddg.id;
      add_int b (kind_code v.Ddg.kind);
      add_triples b scratch
        (fun s p (e : Ddg.edge) ->
          s.(p) <- e.Ddg.dst;
          s.(p + 1) <- dep_code e.Ddg.dep;
          s.(p + 2) <- e.Ddg.distance)
        v.Ddg.succs);
  add_triples b scratch
    (fun s p (st : Loop.stream) ->
      s.(p) <- st.Loop.op;
      s.(p + 1) <- st.Loop.base;
      s.(p + 2) <- st.Loop.stride)
    l.Loop.streams;
  let invs =
    List.sort
      (fun (a : Ddg.invariant) b -> Int.compare a.Ddg.inv_id b.Ddg.inv_id)
      (Ddg.invariants g)
  in
  add_int b (List.length invs);
  List.iter
    (fun (inv : Ddg.invariant) ->
      add_int b inv.Ddg.inv_id;
      add_int b (List.length inv.Ddg.inv_consumers);
      List.iter (add_int b) (List.sort Int.compare inv.Ddg.inv_consumers))
    invs;
  add_int b l.Loop.trip_count;
  add_int b l.Loop.entries;
  add_int b (Ddg.next_id g);
  add_int b (Ddg.next_inv g);
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Machine configurations                                              *)

let put_cap w = function
  | Hcrf_machine.Cap.Inf -> put_part w "inf"
  | Finite n -> put_int w n

(* The generalized fields add parts only when present, with a distinct
   leading tag per field group: a legacy (absent-everywhere)
   organization keeps its legacy encoding byte for byte — and hence its
   historical config digest — while any two configurations differing in
   any port/level field get distinct encodings (parts are
   length-prefixed, tags are distinct). *)
let put_access w tag a =
  match Hcrf_machine.Rf.norm_access a with
  | None -> ()
  | Some a ->
    put_part w tag;
    put_cap w a.pr;
    put_cap w a.pw

let put_l3 w = function
  | None -> ()
  | Some (l : Hcrf_machine.Rf.level3) ->
    put_part w "l3";
    put_cap w l.l3_regs;
    put_cap w l.l3_lp;
    put_cap w l.l3_sp;
    put_access w "tacc" l.l3_access

let put_rf w (rf : Hcrf_machine.Rf.t) =
  match rf with
  | Monolithic { regs; access } ->
    put_part w "mono";
    put_cap w regs;
    put_access w "lacc" access
  | Clustered { clusters; regs_per_bank; lp; sp; buses; access } ->
    put_part w "clustered";
    put_int w clusters;
    put_cap w regs_per_bank;
    put_cap w lp;
    put_cap w sp;
    put_cap w buses;
    put_access w "lacc" access
  | Hierarchical
      { clusters; regs_per_bank; shared_regs; lp; sp; local_access;
        shared_access; l3 } ->
    put_part w "hier";
    put_int w clusters;
    put_cap w regs_per_bank;
    put_cap w shared_regs;
    put_cap w lp;
    put_cap w sp;
    put_l3 w l3;
    put_access w "lacc" local_access;
    put_access w "sacc" shared_access

let of_config (c : Hcrf_machine.Config.t) =
  let l = c.Hcrf_machine.Config.lats in
  let w = start "config" 128 in
  put_int w c.Hcrf_machine.Config.n_fus;
  put_int w c.Hcrf_machine.Config.n_mem_ports;
  put_rf w c.Hcrf_machine.Config.rf;
  put_int w l.Hcrf_machine.Latencies.fadd;
  put_int w l.Hcrf_machine.Latencies.fmul;
  put_int w l.Hcrf_machine.Latencies.fdiv;
  put_int w l.Hcrf_machine.Latencies.fsqrt;
  put_int w l.Hcrf_machine.Latencies.mem_read;
  put_int w l.Hcrf_machine.Latencies.mem_write;
  put_int w l.Hcrf_machine.Latencies.move;
  put_int w l.Hcrf_machine.Latencies.loadr;
  put_int w l.Hcrf_machine.Latencies.storer;
  put_part w (Printf.sprintf "%h" c.Hcrf_machine.Config.cycle_ns);
  put_part w (Printf.sprintf "%h" c.Hcrf_machine.Config.miss_ns);
  finish w

(* ------------------------------------------------------------------ *)
(* Scheduler options                                                   *)

let of_options (o : Hcrf_sched.Engine.options) =
  let w = start "options" 32 in
  put_int w o.Hcrf_sched.Engine.budget_ratio;
  (match o.Hcrf_sched.Engine.max_ii with
  | None -> put_part w "-"
  | Some i -> put_int w i);
  put_part w (if o.Hcrf_sched.Engine.backtracking then "t" else "f");
  put_part w
    (match o.Hcrf_sched.Engine.ordering with
    | `Hrms -> "hrms"
    | `Topological -> "topo");
  finish w
