type t = {
  q : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  n_jobs : int;
}

let rec worker pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.q && not pool.closed do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.q then Mutex.unlock pool.mutex (* closed: drain done *)
  else begin
    let job = Queue.pop pool.q in
    Mutex.unlock pool.mutex;
    (try job () with _ -> () (* jobs report errors via their future *));
    worker pool
  end

let create ~jobs =
  let n_jobs = max 1 jobs in
  let pool =
    {
      q = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [];
      n_jobs;
    }
  in
  pool.workers <- List.init n_jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let jobs t = t.n_jobs

let run t job =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    false
  end
  else begin
    Queue.push job t.q;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex;
    true
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* ------------------------------------------------------------------ *)
(* Futures *)

type 'a state = Pending | Done of 'a | Raised of exn

type 'a future = {
  fmutex : Mutex.t;
  fdone : Condition.t;
  mutable state : 'a state;
}

let promise () =
  { fmutex = Mutex.create (); fdone = Condition.create (); state = Pending }

let fulfil fut r =
  Mutex.lock fut.fmutex;
  (match fut.state with
  | Pending -> ()
  | Done _ | Raised _ ->
    Mutex.unlock fut.fmutex;
    invalid_arg "Pool.fulfil: already fulfilled");
  fut.state <- (match r with Ok v -> Done v | Error e -> Raised e);
  Condition.broadcast fut.fdone;
  Mutex.unlock fut.fmutex

(* Deadline waits.  A waiter with a deadline blocks on its future's
   condition like any other, so [fulfil] wakes it at once; the stdlib
   has no timed condition wait, so one watchdog thread notices expired
   deadlines instead.  While any waiter is registered it sleeps until
   the earliest registered deadline, at most one tick at a time, and
   wakes every waiter whose deadline has passed; while none is, it
   blocks on [watch_nonempty].  A deadline registered during a sleep
   is noticed at most one tick late. *)
let watch_tick = 0.01
let watch_mutex = Mutex.create ()
let watch_nonempty = Condition.create ()
let watched : (int, float * (unit -> unit)) Hashtbl.t = Hashtbl.create 16
let watch_next = ref 0
let watching = ref false

let rec watch () =
  Mutex.lock watch_mutex;
  while Hashtbl.length watched = 0 do
    Condition.wait watch_nonempty watch_mutex
  done;
  let now = Unix.gettimeofday () in
  let next =
    Hashtbl.fold
      (fun _ (dl, wake) next ->
        if now >= dl then (wake (); next) else Float.min dl next)
      watched (now +. watch_tick)
  in
  Mutex.unlock watch_mutex;
  Thread.delay (Float.max 0. (next -. now));
  watch ()

(* Lock order: [watch_mutex], then a future's [fmutex]; a waiter never
   holds its [fmutex] while it (un)registers. *)
let register dl wake =
  Mutex.protect watch_mutex (fun () ->
      if not !watching then begin
        watching := true;
        ignore (Thread.create watch ())
      end;
      let id = !watch_next in
      incr watch_next;
      Hashtbl.replace watched id (dl, wake);
      if Hashtbl.length watched = 1 then Condition.signal watch_nonempty;
      id)

let unregister id =
  Mutex.protect watch_mutex (fun () -> Hashtbl.remove watched id)

let await ?deadline fut =
  let expired () =
    match deadline with
    | None -> false
    | Some dl -> Unix.gettimeofday () >= dl
  in
  let wait () =
    Mutex.lock fut.fmutex;
    let rec go () =
      match fut.state with
      | Done v -> `Ok v
      | Raised e -> `Exn e
      | Pending ->
        if expired () then `Timeout
        else begin
          Condition.wait fut.fdone fut.fmutex;
          go ()
        end
    in
    let r = go () in
    Mutex.unlock fut.fmutex;
    r
  in
  match deadline with
  | None -> wait ()
  | Some dl ->
    let wake () =
      Mutex.protect fut.fmutex (fun () -> Condition.broadcast fut.fdone)
    in
    let id = register dl wake in
    Fun.protect ~finally:(fun () -> unregister id) wait
