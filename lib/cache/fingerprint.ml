(** Canonical fingerprints of scheduling inputs (see the interface).

    Every fingerprint is the MD5 of one {!Hcrf_ir.Transcript}.  Labels,
    combinations, configurations and options open with a head tag
    naming the kind of digest, then write the value's fields in a fixed
    order as tagged varint parts.  A loop's transcript has no head tag:
    it walks the graph in node-id order with every adjacency and
    attribute list sorted by content, so reordering edges, streams or
    invariants leaves it alone, while any node id, kind, dependence
    label, distance, stream or id counter moves it. *)

open Hcrf_ir
module T = Transcript

type t = string (* raw 16-byte MD5 *)

let equal = String.equal
let compare = String.compare

let to_hex t = Digest.to_hex t
let pp ppf t = Fmt.string ppf (to_hex t)

let of_string s =
  let w = T.create (String.length s + 8) in
  T.tag w 'L';
  T.string w s;
  T.digest w

(* Parts are 16-byte digests, each prefixed by its length: a nested
   combination is one part, so it never reads as its flattened list. *)
let combine ts =
  let w = T.create ((17 * List.length ts) + 1) in
  T.tag w 'C';
  List.iter (T.string w) ts;
  T.digest w

(* ------------------------------------------------------------------ *)
(* Loops: one canonical, id-sensitive transcript                       *)

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
let add_triples w scratch put l =
  let k = List.length l in
  if 3 * k > Array.length !scratch then scratch := Array.make (6 * k) 0;
  let s = !scratch in
  List.iteri (fun i x -> put s (3 * i) x) l;
  sort_triples s k;
  T.int w k;
  for i = 0 to (3 * k) - 1 do T.int w s.(i) done

(* Codes spelled out, so the transcript never depends on the
   declaration order of [Op.kind] or [Dep.t]. *)
let kind_code : Op.kind -> int = function
  | Fadd -> 0 | Fmul -> 1 | Fdiv -> 2 | Fsqrt -> 3 | Load -> 4 | Store -> 5
  | Move -> 6 | Load_r -> 7 | Store_r -> 8 | Spill_load -> 9
  | Spill_store -> 10

let dep_code : Dep.t -> int = function True -> 0 | Anti -> 1 | Output -> 2

let of_loop (l : Loop.t) =
  let g = l.Loop.ddg in
  let w = T.create 256 in
  let scratch = ref (Array.make 48 0) in
  T.int w (Ddg.num_nodes g);
  Ddg.iter_nodes g (fun v ->
      T.int w v.Ddg.id;
      T.int w (kind_code v.Ddg.kind);
      add_triples w scratch
        (fun s p (e : Ddg.edge) ->
          s.(p) <- e.Ddg.dst;
          s.(p + 1) <- dep_code e.Ddg.dep;
          s.(p + 2) <- e.Ddg.distance)
        v.Ddg.succs);
  add_triples w scratch
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
  T.int w (List.length invs);
  List.iter
    (fun (inv : Ddg.invariant) ->
      T.int w inv.Ddg.inv_id;
      T.int w (List.length inv.Ddg.inv_consumers);
      List.iter (T.int w) (List.sort Int.compare inv.Ddg.inv_consumers))
    invs;
  T.int w l.Loop.trip_count;
  T.int w l.Loop.entries;
  T.int w (Ddg.next_id g);
  T.int w (Ddg.next_inv g);
  T.digest w

(* ------------------------------------------------------------------ *)
(* Machine configurations                                              *)

let put_cap w = function
  | Hcrf_machine.Cap.Inf -> T.tag w 'i'
  | Finite n -> T.tag w 'n'; T.int w n

(* The generalized fields write a group only when present, each group
   under its own tag: a legacy (absent-everywhere) organization writes
   no group, so [@rinfwinf] keeps the legacy digest.  Groups close the
   transcript (the register file is its last field), so a reader sees
   either a group's tag or the end, never an int it could mistake for
   one. *)
let put_access w tag a =
  match Hcrf_machine.Rf.norm_access a with
  | None -> ()
  | Some a ->
    T.tag w tag;
    put_cap w a.pr;
    put_cap w a.pw

let put_l3 w = function
  | None -> ()
  | Some (l : Hcrf_machine.Rf.level3) ->
    T.tag w '3';
    put_cap w l.l3_regs;
    put_cap w l.l3_lp;
    put_cap w l.l3_sp;
    put_access w 't' l.l3_access

let put_rf w (rf : Hcrf_machine.Rf.t) =
  match rf with
  | Monolithic { regs; access } ->
    T.tag w 'm';
    put_cap w regs;
    put_access w 'l' access
  | Clustered { clusters; regs_per_bank; lp; sp; buses; access } ->
    T.tag w 'c';
    T.int w clusters;
    put_cap w regs_per_bank;
    put_cap w lp;
    put_cap w sp;
    put_cap w buses;
    put_access w 'l' access
  | Hierarchical
      { clusters; regs_per_bank; shared_regs; lp; sp; local_access;
        shared_access; l3 } ->
    T.tag w 'h';
    T.int w clusters;
    put_cap w regs_per_bank;
    put_cap w shared_regs;
    put_cap w lp;
    put_cap w sp;
    put_l3 w l3;
    put_access w 'l' local_access;
    put_access w 's' shared_access

let of_config (c : Hcrf_machine.Config.t) =
  let l = c.Hcrf_machine.Config.lats in
  let w = T.create 64 in
  T.tag w 'M';
  T.int w c.Hcrf_machine.Config.n_fus;
  T.int w c.Hcrf_machine.Config.n_mem_ports;
  T.int w l.Hcrf_machine.Latencies.fadd;
  T.int w l.Hcrf_machine.Latencies.fmul;
  T.int w l.Hcrf_machine.Latencies.fdiv;
  T.int w l.Hcrf_machine.Latencies.fsqrt;
  T.int w l.Hcrf_machine.Latencies.mem_read;
  T.int w l.Hcrf_machine.Latencies.mem_write;
  T.int w l.Hcrf_machine.Latencies.move;
  T.int w l.Hcrf_machine.Latencies.loadr;
  T.int w l.Hcrf_machine.Latencies.storer;
  T.float w c.Hcrf_machine.Config.cycle_ns;
  T.float w c.Hcrf_machine.Config.miss_ns;
  put_rf w c.Hcrf_machine.Config.rf;
  T.digest w

(* ------------------------------------------------------------------ *)
(* Scheduler options                                                   *)

let of_options (o : Hcrf_sched.Engine.options) =
  let w = T.create 16 in
  T.tag w 'O';
  T.int w o.Hcrf_sched.Engine.budget_ratio;
  (match o.Hcrf_sched.Engine.max_ii with
  | None -> T.tag w '-'
  | Some i -> T.tag w '#'; T.int w i);
  T.tag w (if o.Hcrf_sched.Engine.backtracking then 't' else 'f');
  T.tag w
    (match o.Hcrf_sched.Engine.ordering with
    | `Hrms -> 'h'
    | `Topological -> 'o');
  T.digest w
