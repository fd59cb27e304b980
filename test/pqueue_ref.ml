(** Reference priority list (pre-indexed implementation).

    The lazy-deletion heap {!Hcrf_sched.Pqueue} used before it became
    an indexed heap, kept as the executable specification: on every
    operation sequence that follows the engine's discipline (a node is
    queued at most once, always at its one priority) the indexed heap
    must answer [pop], [mem] and [size] as this does, and the QCheck
    harness in [test_sched.ml] drives both to check it.  This one also
    accepts a node at two priorities (it then pops twice), which the
    indexed heap refuses. *)

type t = {
  mutable heap : (float * int * int) array;  (* priority, node, generation *)
  mutable hn : int;                          (* live prefix of [heap] *)
  live : (int, (float * int) list) Hashtbl.t;
      (* node -> (priority, generation) of each live entry *)
  mutable count : int;                       (* total live entries *)
  mutable gen : int;
}

let create () =
  { heap = Array.make 64 (0., 0, 0); hn = 0; live = Hashtbl.create 64;
    count = 0; gen = 0 }

let is_empty t = t.count = 0
let size t = t.count
let mem t node = Hashtbl.mem t.live node

(* Lexicographic (priority, node); generations never order. *)
let lt (p1, v1, _) (p2, v2, _) = p1 < p2 || (p1 = p2 && v1 < v2)

let heap_push t e =
  if t.hn = Array.length t.heap then begin
    let h = Array.make (2 * t.hn) (0., 0, 0) in
    Array.blit t.heap 0 h 0 t.hn;
    t.heap <- h
  end;
  let h = t.heap in
  let i = ref t.hn in
  t.hn <- t.hn + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if lt e h.(parent) then begin
      h.(!i) <- h.(parent);
      i := parent
    end
    else continue := false
  done;
  h.(!i) <- e

let heap_pop t =
  let h = t.heap in
  let top = h.(0) in
  t.hn <- t.hn - 1;
  if t.hn > 0 then begin
    let e = h.(t.hn) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= t.hn then continue := false
      else begin
        let c = if l + 1 < t.hn && lt h.(l + 1) h.(l) then l + 1 else l in
        if lt h.(c) e then begin
          h.(!i) <- h.(c);
          i := c
        end
        else continue := false
      end
    done;
    h.(!i) <- e
  end;
  top

let push t ~priority node =
  let entries = Option.value ~default:[] (Hashtbl.find_opt t.live node) in
  (* identical (priority, node) pushes coalesce, as in a set *)
  if not (List.mem_assoc priority entries) then begin
    t.gen <- t.gen + 1;
    Hashtbl.replace t.live node ((priority, t.gen) :: entries);
    t.count <- t.count + 1;
    heap_push t (priority, node, t.gen)
  end

let rec pop t =
  if t.hn = 0 then None
  else
    let _, v, g = heap_pop t in
    match Hashtbl.find_opt t.live v with
    | Some entries when List.exists (fun (_, g') -> g' = g) entries ->
      (match List.filter (fun (_, g') -> g' <> g) entries with
      | [] -> Hashtbl.remove t.live v
      | rest -> Hashtbl.replace t.live v rest);
      t.count <- t.count - 1;
      Some v
    | Some _ | None -> pop t  (* stale cell: lazily deleted *)

let remove t node =
  match Hashtbl.find_opt t.live node with
  | None -> ()
  | Some entries ->
    t.count <- t.count - List.length entries;
    Hashtbl.remove t.live node
