(** A software-pipelineable innermost loop and its carried key.  See
    the interface for the contract. *)

type stream = {
  op : int;           (** node id of the load/store issuing the stream *)
  base : int;         (** first byte address *)
  stride : int;       (** bytes between consecutive iterations *)
}

(* [""] until the first [key], then the MD5.  Not a [Lazy]: two domains
   may read the key at once, and at worst both write the same bytes. *)
type slot = string Atomic.t

type t = {
  ddg : Ddg.t;
  trip_count : int;
  entries : int;
  streams : stream list;
  slot : slot;
}

let make ?(trip_count = 100) ?(entries = 1) ?(streams = []) ddg =
  if trip_count < 1 then invalid_arg "Loop.make: trip_count < 1";
  if entries < 1 then invalid_arg "Loop.make: entries < 1";
  let ops = List.sort_uniq Int.compare (List.map (fun s -> s.op) streams) in
  if List.compare_lengths ops streams <> 0 then
    invalid_arg "Loop.make: two streams on one op";
  { ddg; trip_count; entries; streams; slot = Atomic.make "" }

type repr = {
  repr_ddg : Ddg.repr;
  repr_trip_count : int;
  repr_entries : int;
  repr_streams : stream list;
}

let to_repr t =
  { repr_ddg = Ddg.to_repr t.ddg; repr_trip_count = t.trip_count;
    repr_entries = t.entries; repr_streams = t.streams }

let of_repr r =
  make ~trip_count:r.repr_trip_count ~entries:r.repr_entries
    ~streams:r.repr_streams (Ddg.of_repr r.repr_ddg)

(* ------------------------------------------------------------------ *)
(* The key: one canonical, id-sensitive transcript                     *)

module T = Transcript

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

(* No head tag: the graph in node-id order with every adjacency and
   attribute list sorted by content, so reordering edges, streams or
   invariants leaves it alone, while any node id, kind, dependence
   label, distance, stream or id counter moves it. *)
let transcript l =
  let g = l.ddg in
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
    (fun s p st ->
      s.(p) <- st.op;
      s.(p + 1) <- st.base;
      s.(p + 2) <- st.stride)
    l.streams;
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
  T.int w l.trip_count;
  T.int w l.entries;
  T.int w (Ddg.next_id g);
  T.int w (Ddg.next_inv g);
  T.digest w

let key l =
  match Atomic.get l.slot with
  | "" ->
    let k = transcript l in
    Atomic.set l.slot k;
    k
  | k -> k

let name t = Ddg.name t.ddg

let total_iterations t = t.trip_count * t.entries

let memory_refs_per_iter t = Ddg.num_memory_ops t.ddg

let stream_for t op_id = List.find_opt (fun s -> s.op = op_id) t.streams
