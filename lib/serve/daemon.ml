type t = {
  tiers_ : Tiers.t;
  addr_ : Wire.addr;
  max_frame : int;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  (* live connection count, for the drain barrier *)
  conn_mutex : Mutex.t;
  conn_done : Condition.t;
  mutable active : int;
}

let addr t = t.addr_
let tiers t = t.tiers_

let bind_listen addr =
  (match addr with
  | Wire.Unix_sock path -> (
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Wire.Tcp _ -> ());
  let domain, sockaddr = Wire.sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd sockaddr;
  Unix.listen fd 64;
  fd

let create ?(max_frame = Wire.default_max_frame) ~addr tiers =
  {
    tiers_ = tiers;
    addr_ = addr;
    max_frame;
    listen_fd = bind_listen addr;
    stop_flag = Atomic.make false;
    conn_mutex = Mutex.create ();
    conn_done = Condition.create ();
    active = 0;
  }

let request_stop t = Atomic.set t.stop_flag true

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigterm stop;
  Sys.set_signal Sys.sigint stop

(* select, treating EINTR as "nothing ready" *)
let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let reply fd framed = try Wire.write fd framed with Unix.Unix_error _ -> ()

(* One connection: a sequence of frames until EOF, a framing error or
   the drain.  Returns (closing the socket is the caller's job). *)
let handle t fd =
  let rec session () =
    if Atomic.get t.stop_flag then ()
    else if not (readable fd 0.25) then session ()
    else
      match Wire.read_frame ~max_frame:t.max_frame fd with
      | Wire.Eof -> ()
      | Wire.Bad e ->
        (* the stream is desynchronized: answer (best-effort) and
           close this connection — only this connection *)
        let kind =
          match e with
          | Wire.Too_large _ -> Wire.Too_big
          | Wire.Bad_magic | Wire.Truncated | Wire.Bad_checksum
          | Wire.Bad_payload _ ->
            Wire.Malformed
        in
        let resp =
          Tiers.reject t.tiers_ ~kind (Fmt.str "%a" Wire.pp_frame_error e)
        in
        reply fd (Wire.encode_response resp)
      | Wire.Frame { payload; digest } ->
        reply fd (Tiers.answer t.tiers_ ~digest payload);
        session ()
  in
  try session () with
  | Unix.Unix_error _ -> ()
  | Sys_error _ -> ()

let spawn_handler t fd =
  Mutex.lock t.conn_mutex;
  t.active <- t.active + 1;
  Mutex.unlock t.conn_mutex;
  ignore
    (Thread.create
       (fun () ->
         Fun.protect
           ~finally:(fun () ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             Mutex.lock t.conn_mutex;
             t.active <- t.active - 1;
             Condition.broadcast t.conn_done;
             Mutex.unlock t.conn_mutex)
           (fun () -> handle t fd))
       ())

let run t =
  while not (Atomic.get t.stop_flag) do
    if readable t.listen_fd 0.25 then
      match Unix.accept t.listen_fd with
      | fd, _ -> spawn_handler t fd
      | exception
          Unix.Unix_error
            ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
              | Unix.ECONNABORTED ),
              _, _ ) ->
        ()
  done;
  (* drain: no new connections, finish the live ones, join the pool *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.addr_ with
  | Wire.Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ());
  Mutex.lock t.conn_mutex;
  while t.active > 0 do
    Condition.wait t.conn_done t.conn_mutex
  done;
  Mutex.unlock t.conn_mutex;
  Tiers.shutdown t.tiers_

let spawn t = Thread.create run t
