(** Canonical fingerprints of scheduling inputs (see the interface).

    Labels, configurations and options are MD5 over length-prefixed
    part lists, so no two distinct part lists share an encoding.  A
    loop is one MD5 over a transcript of Weisfeiler–Lehman refinement
    on integer ranks: every table in it is sorted by content and every
    node is named only by its class, which makes the result invariant
    under node renumbering and edge reordering while remaining
    sensitive to kinds, dependence labels, distances and per-node
    attributes. *)

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
(* Loops: WL color refinement on integer ranks                         *)

(* The transcript's encoding: ints as zigzag varints (7 bits a byte,
   high bit set on all but the last), int arrays prefixed by their
   length, tables by their entry count.  Every part is self-delimiting,
   so distinct transcripts never share bytes, and small ints (ranks,
   degrees, distances) take one byte, which keeps the buffer small. *)
let add_int b n =
  let u = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !u land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !u)

let add_ints b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a

let add_table b entries =
  add_int b (Array.length entries);
  Array.iter (add_ints b) entries

(* Lexicographic, then shorter first.  Fields are compared one by one,
   never packed into one int: distances come from the wire and a
   packed key could overflow and merge distinct loops. *)
let compare_ints (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 in
  while !i < la && !i < lb && a.(!i) = b.(!i) do incr i done;
  if !i < la && !i < lb then Int.compare a.(!i) b.(!i) else Int.compare la lb

let sort_ints entries =
  Array.stable_sort compare_ints entries;
  entries

(* In-place heapsort of the (dep, distance, rank) triples stored at
   positions [p] = [off], [off + 3], ... of [s]: no allocation, and
   O(k log k) even for a node carrying every edge of a request. *)
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

let rec sift s off i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let m =
      if l + 1 < len && triple_greater s (off + (3 * l) + 3) (off + (3 * l))
      then l + 1
      else l
    in
    if triple_greater s (off + (3 * m)) (off + (3 * i)) then begin
      swap_triples s (off + (3 * i)) (off + (3 * m));
      sift s off m len
    end
  end

let sort_triples s off k =
  for i = (k / 2) - 1 downto 0 do sift s off i k done;
  for last = k - 1 downto 1 do
    swap_triples s off (off + (3 * last));
    sift s off 0 last
  done

(* Replace each node's rank by the rank of its signature in the sorted
   table of this round's distinct signatures, write that table, and
   return its size.  Ranks depend only on the multiset of signatures,
   never on node order. *)
let classify b sigs rank =
  let n = Array.length sigs in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare_ints sigs.(i) sigs.(j)) order;
  let d = ref (-1) in
  Array.iteri
    (fun k i ->
      if k = 0 || compare_ints sigs.(order.(k - 1)) sigs.(i) <> 0 then incr d;
      rank.(i) <- !d)
    order;
  add_int b (!d + 1);
  Array.iteri
    (fun k i ->
      if k = 0 || rank.(order.(k - 1)) <> rank.(i) then add_ints b sigs.(i))
    order;
  !d + 1

(* Codes spelled out, so the transcript never depends on the
   declaration order of [Op.kind] or [Dep.t]. *)
let kind_code : Op.kind -> int = function
  | Fadd -> 0 | Fmul -> 1 | Fdiv -> 2 | Fsqrt -> 3 | Load -> 4 | Store -> 5
  | Move -> 6 | Load_r -> 7 | Store_r -> 8 | Spill_load -> 9
  | Spill_store -> 10

let dep_code : Dep.t -> int = function True -> 0 | Anti -> 1 | Output -> 2

let of_loop (l : Loop.t) =
  let g = l.Loop.ddg in
  (* dense indices: position in the sorted id list, so nothing is sized
     by an id (ids may come from the wire) *)
  let ids = Array.of_list (Ddg.nodes g) in
  let n = Array.length ids in
  let index id =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ids.(mid) < id then lo := mid + 1 else hi := mid
    done;
    if !lo < n && ids.(!lo) = id then !lo else -1
  in
  let index_exn id =
    let i = index id in
    if i < 0 then invalid_arg "Fingerprint.of_loop: edge or consumer of an \
                               unknown node";
    i
  in
  let nodes = Array.map (Ddg.node g) ids in
  (* initial label: kind, invariants read, then the node's first memory
     stream (flag, base, stride) *)
  let label =
    Array.map (fun (v : Ddg.node) -> [| kind_code v.Ddg.kind; 0; 0; 0; 0 |])
      nodes
  in
  List.iter
    (fun (inv : Ddg.invariant) ->
      List.iter
        (fun c ->
          let a = label.(index_exn c) in
          a.(1) <- a.(1) + 1)
        inv.Ddg.inv_consumers)
    (Ddg.invariants g);
  List.iter
    (fun (s : Loop.stream) ->
      let i = index s.Loop.op in
      if i >= 0 && label.(i).(2) = 0 then begin
        label.(i).(2) <- 1;
        label.(i).(3) <- s.Loop.base;
        label.(i).(4) <- s.Loop.stride
      end)
    l.Loop.streams;
  (* each node's in- and out-edges as flat (dep, distance, neighbour
     index) triples *)
  let triples other edges =
    let a = Array.make (3 * List.length edges) 0 in
    List.iteri
      (fun k (e : Ddg.edge) ->
        a.(3 * k) <- dep_code e.Ddg.dep;
        a.((3 * k) + 1) <- e.Ddg.distance;
        a.((3 * k) + 2) <- index_exn (other e))
      edges;
    a
  in
  let ins = Array.map (fun v -> triples (fun e -> e.Ddg.src) v.Ddg.preds) nodes
  and outs =
    Array.map (fun v -> triples (fun e -> e.Ddg.dst) v.Ddg.succs) nodes
  in
  let b = Buffer.create 256 in
  add_int b n;
  let rank = Array.make n 0 in
  let signature i =
    let ni = Array.length ins.(i) and no = Array.length outs.(i) in
    let s = Array.make (2 + ni + no) 0 in
    s.(0) <- rank.(i);
    s.(1) <- ni / 3;
    let put off e =
      for k = 0 to (Array.length e / 3) - 1 do
        let p = off + (3 * k) in
        s.(p) <- e.(3 * k);
        s.(p + 1) <- e.((3 * k) + 1);
        s.(p + 2) <- rank.(e.((3 * k) + 2))
      done
    in
    put 2 ins.(i);
    put (2 + ni) outs.(i);
    sort_triples s 2 (ni / 3);
    sort_triples s (2 + ni) (no / 3);
    s
  in
  (* refinement only ever splits classes; stop when the partition is
     stable (at most n rounds) *)
  let rec refine rounds d =
    if rounds >= n then d
    else
      let d' = classify b (Array.init n signature) rank in
      if d' > d then refine (rounds + 1) d' else d'
  in
  let d = refine 0 (classify b label rank) in
  let counts = Array.make d 0 in
  Array.iter (fun r -> counts.(r) <- counts.(r) + 1) rank;
  add_ints b counts;
  let edges = ref [] in
  Array.iteri
    (fun i e ->
      for k = 0 to (Array.length e / 3) - 1 do
        edges :=
          [| rank.(i); rank.(e.((3 * k) + 2)); e.(3 * k); e.((3 * k) + 1) |]
          :: !edges
      done)
    outs;
  add_table b (sort_ints (Array.of_list !edges));
  let consumer_classes (inv : Ddg.invariant) =
    let a =
      Array.of_list
        (List.map (fun c -> rank.(index_exn c)) inv.Ddg.inv_consumers)
    in
    Array.sort Int.compare a;
    a
  in
  add_table b
    (sort_ints
       (Array.of_list (List.map consumer_classes (Ddg.invariants g))));
  add_int b l.Loop.trip_count;
  add_int b l.Loop.entries;
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Machine configurations                                              *)

let cap = function Hcrf_machine.Cap.Inf -> "inf" | Finite n -> int n

(* The generalized fields append parts only when present, with a
   distinct leading tag per field group: a legacy (absent-everywhere)
   organization keeps its legacy part list byte-for-byte — and hence its
   historical config digest; full cache keys also cover the loop
   fingerprint, whose bytes changed with stage-memo version 3 — while
   any two configurations differing in any port/level field get
   distinct encodings (parts are length-prefixed, tags are distinct). *)
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
