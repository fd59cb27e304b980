(** Canonical fingerprints of scheduling inputs (see the interface).

    Labels, configurations and options are MD5 over length-prefixed
    part lists, so no two distinct part lists share an encoding.  A
    loop is one MD5 over a varint transcript of its graph in node-id
    order, with every adjacency and attribute list sorted by content:
    reordering edges, streams or invariants leaves it alone, while any
    node id, kind, dependence label, distance, stream or id counter
    moves it. *)

open Hcrf_ir

type t = string (* raw 16-byte MD5 *)

let equal = String.equal
let compare = String.compare

let to_hex t = Digest.to_hex t
let pp ppf t = Fmt.string ppf (to_hex t)

(* Unambiguous encoding: each part is length-prefixed before
   concatenation, so part boundaries cannot be confused. *)
let digest parts =
  Digest.string
    (String.concat ""
       (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts))

let of_string s = digest [ "label"; s ]
let combine ts = digest ("combine" :: ts)

let int i = string_of_int i
let float f = Printf.sprintf "%h" f
let bool b = if b then "t" else "f"

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

let cap = function Hcrf_machine.Cap.Inf -> "inf" | Finite n -> int n

(* The generalized fields append parts only when present, with a
   distinct leading tag per field group: a legacy (absent-everywhere)
   organization keeps its legacy part list byte-for-byte — and hence its
   historical config digest — while any two configurations differing in
   any port/level field get distinct encodings (parts are
   length-prefixed, tags are distinct). *)
let access_parts tag a =
  match Hcrf_machine.Rf.norm_access a with
  | None -> []
  | Some a -> [ tag; cap a.pr; cap a.pw ]

let l3_parts = function
  | None -> []
  | Some (l : Hcrf_machine.Rf.level3) ->
    [ "l3"; cap l.l3_regs; cap l.l3_lp; cap l.l3_sp ]
    @ access_parts "tacc" l.l3_access

let rf_parts (rf : Hcrf_machine.Rf.t) =
  match rf with
  | Monolithic { regs; access } ->
    [ "mono"; cap regs ] @ access_parts "lacc" access
  | Clustered { clusters; regs_per_bank; lp; sp; buses; access } ->
    [ "clustered"; int clusters; cap regs_per_bank; cap lp; cap sp;
      cap buses ]
    @ access_parts "lacc" access
  | Hierarchical
      { clusters; regs_per_bank; shared_regs; lp; sp; local_access;
        shared_access; l3 } ->
    [ "hier"; int clusters; cap regs_per_bank; cap shared_regs; cap lp;
      cap sp ]
    @ l3_parts l3
    @ access_parts "lacc" local_access
    @ access_parts "sacc" shared_access

let of_config (c : Hcrf_machine.Config.t) =
  let l = c.Hcrf_machine.Config.lats in
  digest
    ([ "config"; int c.Hcrf_machine.Config.n_fus;
       int c.Hcrf_machine.Config.n_mem_ports ]
    @ rf_parts c.Hcrf_machine.Config.rf
    @ [ int l.Hcrf_machine.Latencies.fadd; int l.Hcrf_machine.Latencies.fmul;
        int l.Hcrf_machine.Latencies.fdiv;
        int l.Hcrf_machine.Latencies.fsqrt;
        int l.Hcrf_machine.Latencies.mem_read;
        int l.Hcrf_machine.Latencies.mem_write;
        int l.Hcrf_machine.Latencies.move;
        int l.Hcrf_machine.Latencies.loadr;
        int l.Hcrf_machine.Latencies.storer;
        float c.Hcrf_machine.Config.cycle_ns;
        float c.Hcrf_machine.Config.miss_ns ])

(* ------------------------------------------------------------------ *)
(* Scheduler options                                                   *)

let of_options ?(probe = []) (o : Hcrf_sched.Engine.options) =
  let samples =
    List.concat_map
      (fun id ->
        [ int id;
          (match o.Hcrf_sched.Engine.load_override id with
          | None -> "-"
          | Some l -> int l) ])
      probe
  in
  digest
    ([ "options"; int o.Hcrf_sched.Engine.budget_ratio;
       (match o.Hcrf_sched.Engine.max_ii with None -> "-" | Some i -> int i);
       bool o.Hcrf_sched.Engine.backtracking;
       (match o.Hcrf_sched.Engine.ordering with
       | `Hrms -> "hrms"
       | `Topological -> "topo") ]
    @ samples)
