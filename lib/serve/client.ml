type t = { fd : Unix.file_descr; max_frame : int }

let connect ?(max_frame = Wire.default_max_frame) addr =
  let domain, sockaddr = Wire.sockaddr addr in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect sock sockaddr with
  | () -> Ok { fd = sock; max_frame }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Error
      (Fmt.str "cannot connect to %a: %s" Wire.pp_addr addr
         (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let read_reply t =
  match Wire.read_frame ~max_frame:t.max_frame t.fd with
  | Wire.Frame { payload; _ } -> (
    match Wire.decode_response payload with
    | Ok r -> Ok r
    | Error e -> Error (Fmt.str "bad reply: %a" Wire.pp_frame_error e))
  | Wire.Eof -> Error "connection closed by server"
  | Wire.Bad e -> Error (Fmt.str "bad reply frame: %a" Wire.pp_frame_error e)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let request t req =
  match Wire.write t.fd (Wire.encode_request req) with
  | () -> read_reply t
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let schedule t ?timeout_ms ~config ~opts ~scenario loop =
  request t
    (Wire.Schedule
       (Wire.request_of_loop ?timeout_ms ~config ~opts ~scenario loop))

let stats t =
  match request t Wire.Stats with
  | Ok (Wire.Stats_reply s) -> Ok s
  | Ok _ -> Error "unexpected reply to Stats"
  | Error _ as e -> e

let ping t =
  match request t Wire.Ping with
  | Ok Wire.Pong -> Ok ()
  | Ok _ -> Error "unexpected reply to Ping"
  | Error _ as e -> e

let send_raw t bytes =
  match Wire.write t.fd bytes with
  | () -> read_reply t
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
