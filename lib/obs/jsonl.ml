(** The [Jsonl] sink: one JSON object per line, one file per run.

    Line 1 is a versioned header ([{"schema":"hcrf-trace","version":3}]);
    every following line is one event tagged with the label of the work
    unit that produced it.  Events reach {!write} only through
    {!Tracer.commit}, which serializes per-work-unit buffers in input
    order — so a [jobs > 1] run produces the same file as a serial one.

    The module is also its own schema checker: {!validate_file} and
    {!read_file} accept exactly the language {!write} emits (flat
    objects, string and integer values, the exact field set of each
    event kind) and reject anything else. *)

let schema_name = "hcrf-trace"

(* version 2: the [incr] event's stage enum lost ["extract"];
   version 3: the [incr] event lost its [stage] field (the stage memo
   has one stage, the frontend) *)
let version = 3

type value = S of string | I of int

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let render_fields fields =
  let b = Buffer.create 80 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      add_escaped b k;
      Buffer.add_string b "\":";
      match v with
      | I n -> Buffer.add_string b (string_of_int n)
      | S s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"')
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* Payload fields of each event kind, in a stable order. *)
let payload (ev : Event.t) =
  match ev with
  | Event.II_try ii -> ("ii_try", [ ("ii", I ii) ])
  | Event.Place { node; cycle; cluster } ->
    ("place", [ ("node", I node); ("cycle", I cycle); ("cluster", I cluster) ])
  | Event.Eject { node } -> ("eject", [ ("node", I node) ])
  | Event.Spill_insert { kind; inserted } ->
    ( "spill_insert",
      [ ("kind", S (Event.spill_name kind)); ("inserted", I inserted) ] )
  | Event.Comm_insert c -> ("comm_insert", [ ("kind", S (Event.comm_name c)) ])
  | Event.Regalloc_fail { bank } -> ("regalloc_fail", [ ("bank", S bank) ])
  | Event.Budget_escalate { rung } -> ("budget_escalate", [ ("rung", I rung) ])
  | Event.Cache op -> ("cache", [ ("op", S (Event.cache_op_name op)) ])
  | Event.Phase { phase; ns } ->
    ("phase", [ ("phase", S (Event.phase_name phase)); ("ns", I ns) ])
  | Event.Fuzz v -> ("fuzz", [ ("verdict", S (Event.fuzz_verdict_name v)) ])
  | Event.Shrink { steps } -> ("shrink", [ ("steps", I steps) ])
  | Event.Exact_search { lb; witness_ii; steps } ->
    ( "exact_search",
      [ ("lb", I lb); ("witness_ii", I witness_ii); ("steps", I steps) ] )
  | Event.Serve op -> ("serve", [ ("op", S (Event.serve_op_name op)) ])
  | Event.Incr { op; ns } ->
    ("incr", [ ("op", S (Event.incr_op_name op)); ("ns", I ns) ])

let line_of_event ~label ev =
  let kind, fields = payload ev in
  render_fields (("loop", S label) :: ("ev", S kind) :: fields)

let header_line =
  render_fields [ ("schema", S schema_name); ("version", I version) ]

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type t = { path : string; oc : out_channel; mutable written : int }

let create path =
  let oc = open_out path in
  output_string oc header_line;
  output_char oc '\n';
  { path; oc; written = 0 }

let write t ~label ev =
  output_string t.oc (line_of_event ~label ev);
  output_char t.oc '\n';
  t.written <- t.written + 1

let close t =
  flush t.oc;
  close_out t.oc

let path t = t.path
let written t = t.written

(* ------------------------------------------------------------------ *)
(* Parsing / schema validation                                         *)

exception Bad of string

let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Fmt.str "%s at column %d" msg (!pos + 1))) in
  let peek () = if !pos < n then line.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let expect c =
    if peek () = c then advance () else fail (Fmt.str "expected %C" c)
  in
  let skip_ws () =
    while !pos < n && line.[!pos] = ' ' do
      incr pos
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub line !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
          | Some _ | None -> fail "unsupported \\u escape")
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 32 -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_int () =
    let start = !pos in
    if !pos < n && line.[!pos] = '-' then advance ();
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      advance ()
    done;
    match int_of_string_opt (String.sub line start (!pos - start)) with
    | Some i -> i
    | None -> fail "expected an integer"
  in
  skip_ws ();
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = '}' then advance ()
  else begin
    let rec pairs () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      skip_ws ();
      let v = if peek () = '"' then S (parse_string ()) else I (parse_int ()) in
      if List.mem_assoc k !fields then fail (Fmt.str "duplicate key %S" k);
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' ->
        advance ();
        pairs ()
      | '}' -> advance ()
      | _ -> fail "expected ',' or '}'"
    in
    pairs ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing characters after object";
  List.rev !fields

(* Decode an event from its payload fields; the exact field set is then
   checked by re-encoding, so each kind's fields are listed once, in
   [payload]. *)
let decode ~kind fields =
  let ( let* ) = Result.bind in
  let int k =
    match List.assoc_opt k fields with
    | Some (I v) -> Ok v
    | _ -> Error (Fmt.str "%s: missing integer %S" kind k)
  in
  let str k =
    match List.assoc_opt k fields with
    | Some (S v) -> Ok v
    | _ -> Error (Fmt.str "%s: missing string %S" kind k)
  in
  let enum k of_name =
    let* s = str k in
    Option.to_result ~none:(Fmt.str "%s: bad %S value" kind k) (of_name s)
  in
  match kind with
  | "ii_try" ->
    let* ii = int "ii" in
    Ok (Event.II_try ii)
  | "place" ->
    let* node = int "node" in
    let* cycle = int "cycle" in
    let* cluster = int "cluster" in
    Ok (Event.Place { node; cycle; cluster })
  | "eject" ->
    let* node = int "node" in
    Ok (Event.Eject { node })
  | "spill_insert" ->
    let* kind = enum "kind" Event.spill_of_name in
    let* inserted = int "inserted" in
    Ok (Event.Spill_insert { kind; inserted })
  | "comm_insert" ->
    let* kind = enum "kind" Event.comm_of_name in
    Ok (Event.Comm_insert kind)
  | "regalloc_fail" ->
    let* bank = str "bank" in
    Ok (Event.Regalloc_fail { bank })
  | "budget_escalate" ->
    let* rung = int "rung" in
    Ok (Event.Budget_escalate { rung })
  | "cache" ->
    let* op = enum "op" Event.cache_op_of_name in
    Ok (Event.Cache op)
  | "phase" ->
    let* phase = enum "phase" Event.phase_of_name in
    let* ns = int "ns" in
    Ok (Event.Phase { phase; ns })
  | "fuzz" ->
    let* verdict = enum "verdict" Event.fuzz_verdict_of_name in
    Ok (Event.Fuzz verdict)
  | "shrink" ->
    let* steps = int "steps" in
    Ok (Event.Shrink { steps })
  | "exact_search" ->
    let* lb = int "lb" in
    let* witness_ii = int "witness_ii" in
    let* steps = int "steps" in
    Ok (Event.Exact_search { lb; witness_ii; steps })
  | "serve" ->
    let* op = enum "op" Event.serve_op_of_name in
    Ok (Event.Serve op)
  | "incr" ->
    let* op = enum "op" Event.incr_op_of_name in
    let* ns = int "ns" in
    Ok (Event.Incr { op; ns })
  | other -> Error (Fmt.str "unknown event kind %S" other)

let event_of_line line : (string * Event.t, string) result =
  match parse_object line with
  | exception Bad m -> Error m
  | fields -> (
    let ( let* ) = Result.bind in
    let str k =
      match List.assoc_opt k fields with
      | Some (S v) -> Ok v
      | _ -> Error (Fmt.str "missing or non-string %S field" k)
    in
    let* kind = str "ev" in
    let* label = str "loop" in
    let rest = List.filter (fun (k, _) -> k <> "ev" && k <> "loop") fields in
    let* ev = decode ~kind rest in
    let sorted = List.sort compare in
    if sorted (snd (payload ev)) = sorted rest then Ok (label, ev)
    else
      Error
        (Fmt.str "field set [%s] does not match the schema"
           (String.concat "," (List.map fst fields))))

let check_header line =
  match parse_object line with
  | exception Bad m -> Error m
  | fields -> (
    match
      (List.assoc_opt "schema" fields, List.assoc_opt "version" fields)
    with
    | Some (S s), Some (I v) when s = schema_name && v = version ->
      if List.length fields = 2 then Ok ()
      else Error "header carries unexpected fields"
    | Some (S s), Some (I v) ->
      Error (Fmt.str "header %s/%d, expected %s/%d" s v schema_name version)
    | _ -> Error "malformed header (need \"schema\" and \"version\")")

let fold_lines path ~init ~f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok acc
        | line -> (
          match f lineno acc line with
          | Ok acc -> go (lineno + 1) acc
          | Error m -> Error (Fmt.str "%s:%d: %s" path lineno m))
      in
      go 1 init)

(** Read a whole trace file back as [(label, event)] pairs in file
    order; [Error] pinpoints the first offending line. *)
let read_file path =
  match
    fold_lines path ~init:[] ~f:(fun lineno acc line ->
        if lineno = 1 then Result.map (fun () -> acc) (check_header line)
        else Result.map (fun ev -> ev :: acc) (event_of_line line))
  with
  | Ok rev -> Ok (List.rev rev)
  | Error _ as e -> e
  | exception Sys_error m -> Error m

(** Schema check of a whole file: [Ok n] with the number of events, or
    the first violation. *)
let validate_file path = Result.map List.length (read_file path)
