type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutex : Mutex.t;
  mutable evictions : int;
}

type stats = {
  evictions : int;
  length : int;
  capacity : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    mutex = Mutex.create ();
    evictions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | None -> None
      | Some n ->
        unlink t n;
        push_front t n;
        Some n.value)

let add t k v =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some n ->
        n.value <- v;
        unlink t n;
        push_front t n
      | None ->
        let n = { key = k; value = v; prev = None; next = None } in
        Hashtbl.replace t.table k n;
        push_front t n;
        if Hashtbl.length t.table > t.capacity then
          match t.tail with
          | None -> assert false (* capacity >= 1: list is non-empty *)
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            t.evictions <- t.evictions + 1)

let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        evictions = t.evictions;
        length = Hashtbl.length t.table;
        capacity = t.capacity;
      })
