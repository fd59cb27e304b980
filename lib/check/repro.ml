open Hcrf_ir
module Lat = Hcrf_machine.Latencies
module Ev = Hcrf_obs.Event

type t = {
  seed : int;
  case : int;
  params : string;
  config : string;
  n_fus : int;
  n_mem_ports : int;
  lats : Lat.t;
  options : string;
  verdict : Ev.fuzz_verdict;
  detail : string;
  loop : Loop.t;
}

let format_magic = "hcrf-repro 1"

(* ------------------------------------------------------------------ *)
(* Names                                                               *)

let kind_of_name s =
  List.find_opt (fun k -> String.equal (Op.kind_name k) s) Op.all_kinds

let dep_of_name s =
  List.find_opt
    (fun d -> String.equal (Dep.name d) s)
    [ Dep.True; Dep.Anti; Dep.Output ]

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let to_string t =
  let b = Buffer.create 1024 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let r = Ddg.to_repr t.loop.Loop.ddg in
  line "%s" format_magic;
  line "# reproducer emitted by hcrf_check; replay with [Check.replay_file]";
  line "seed %d" t.seed;
  line "case %d" t.case;
  line "params %s" t.params;
  line "config %s" t.config;
  line "machine n_fus=%d n_mem_ports=%d" t.n_fus t.n_mem_ports;
  line "lats fadd=%d fmul=%d fdiv=%d fsqrt=%d mem_read=%d mem_write=%d \
        move=%d loadr=%d storer=%d"
    t.lats.Lat.fadd t.lats.Lat.fmul t.lats.Lat.fdiv t.lats.Lat.fsqrt
    t.lats.Lat.mem_read t.lats.Lat.mem_write t.lats.Lat.move t.lats.Lat.loadr
    t.lats.Lat.storer;
  line "options %s" t.options;
  line "verdict %s" (Ev.fuzz_verdict_name t.verdict);
  line "detail %s" (one_line t.detail);
  line "name %s" r.Ddg.repr_name;
  line "trip %d" t.loop.Loop.trip_count;
  line "entries %d" t.loop.Loop.entries;
  line "next %d %d" r.Ddg.repr_next_id r.Ddg.repr_next_inv;
  List.iter
    (fun (id, k, _, _) -> line "node %d %s" id (Op.kind_name k))
    r.Ddg.repr_nodes;
  List.iter
    (fun (_, _, succs, _) ->
      List.iter
        (fun (e : Ddg.edge) ->
          line "succ %d %d %s %d" e.Ddg.src e.Ddg.dst (Dep.name e.Ddg.dep)
            e.Ddg.distance)
        succs)
    r.Ddg.repr_nodes;
  List.iter
    (fun (_, _, _, preds) ->
      List.iter
        (fun (e : Ddg.edge) ->
          line "pred %d %d %s %d" e.Ddg.src e.Ddg.dst (Dep.name e.Ddg.dep)
            e.Ddg.distance)
        preds)
    r.Ddg.repr_nodes;
  List.iter
    (fun (inv, consumers) ->
      line "inv %d %s" inv
        (match consumers with
        | [] -> "-"
        | cs -> String.concat "," (List.map string_of_int cs)))
    r.Ddg.repr_invariants;
  List.iter
    (fun (s : Loop.stream) ->
      line "stream %d %d %d" s.Loop.op s.Loop.base s.Loop.stride)
    t.loop.Loop.streams;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Bad of string

let badf fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt

let of_string s : (t, string) result =
  let int_of n v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> badf "%s: not an integer: %s" n v
  in
  (* singleton fields *)
  let fields : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let set k v =
    if Hashtbl.mem fields k then badf "duplicate field %s" k;
    Hashtbl.replace fields k v
  in
  let get k =
    match Hashtbl.find_opt fields k with
    | Some v -> v
    | None -> badf "missing field %s" k
  in
  (* accumulated sections, kept in file order *)
  let nodes = ref [] and succs = ref [] and preds = ref [] in
  let invs = ref [] and streams = ref [] in
  let parse_edge n = function
    | [ src; dst; dep; dist ] ->
      let dep =
        match dep_of_name dep with
        | Some d -> d
        | None -> badf "%s: unknown dependence %s" n dep
      in
      { Ddg.src = int_of n src; dst = int_of n dst; dep;
        distance = int_of n dist }
    | _ -> badf "%s: expected <src> <dst> <dep> <distance>" n
  in
  let parse_line ln =
    match String.split_on_char ' ' ln |> List.filter (fun s -> s <> "") with
    | [] -> ()
    | "#" :: _ -> ()
    | keyword :: rest -> (
      if String.length keyword > 0 && keyword.[0] = '#' then ()
      else
        match (keyword, rest) with
        | "node", [ id; kind ] ->
          let k =
            match kind_of_name kind with
            | Some k -> k
            | None -> badf "node %s: unknown kind %s" id kind
          in
          nodes := (int_of "node" id, k) :: !nodes
        | "succ", args -> succs := parse_edge "succ" args :: !succs
        | "pred", args -> preds := parse_edge "pred" args :: !preds
        | "inv", [ id; consumers ] ->
          let cs =
            if String.equal consumers "-" then []
            else
              String.split_on_char ',' consumers
              |> List.map (fun c -> int_of "inv" c)
          in
          invs := (int_of "inv" id, cs) :: !invs
        | "stream", [ op; base; stride ] ->
          streams :=
            { Loop.op = int_of "stream" op; base = int_of "stream" base;
              stride = int_of "stream" stride }
            :: !streams
        | ("detail" | "lats" | "machine" | "next" | "name"), _ ->
          set keyword (String.concat " " rest)
        | (("seed" | "case" | "params" | "config" | "options" | "verdict"
           | "trip" | "entries") as k), [ v ] ->
          set k v
        | k, _ -> badf "unknown or malformed line: %s"
                    (String.concat " " (k :: rest)))
  in
  let build () =
    match String.split_on_char '\n' s with
    | magic :: rest when String.equal (String.trim magic) format_magic ->
      List.iter (fun ln -> parse_line (String.trim ln)) rest;
      let nodes = List.rev !nodes in
      let succs = List.rev !succs and preds = List.rev !preds in
      let next_id, next_inv =
        match
          String.split_on_char ' ' (get "next")
          |> List.filter (fun x -> x <> "")
        with
        | [ a; b ] -> (int_of "next" a, int_of "next" b)
        | _ -> badf "next: expected two integers"
      in
      let kv n line =
        (* "k1=v1 k2=v2 ..." -> assoc list *)
        String.split_on_char ' ' line
        |> List.filter (fun x -> x <> "")
        |> List.map (fun pair ->
               match String.index_opt pair '=' with
               | Some i ->
                 ( String.sub pair 0 i,
                   int_of n
                     (String.sub pair (i + 1) (String.length pair - i - 1)) )
               | None -> badf "%s: expected k=v, got %s" n pair)
      in
      let machine = kv "machine" (get "machine") in
      let lat = kv "lats" (get "lats") in
      let field n l k =
        match List.assoc_opt k l with
        | Some v -> v
        | None -> badf "%s: missing %s" n k
      in
      let lats =
        {
          Lat.fadd = field "lats" lat "fadd";
          fmul = field "lats" lat "fmul";
          fdiv = field "lats" lat "fdiv";
          fsqrt = field "lats" lat "fsqrt";
          mem_read = field "lats" lat "mem_read";
          mem_write = field "lats" lat "mem_write";
          move = field "lats" lat "move";
          loadr = field "lats" lat "loadr";
          storer = field "lats" lat "storer";
        }
      in
      let verdict =
        let v = get "verdict" in
        match Ev.fuzz_verdict_of_name v with
        | Some k -> k
        | None -> badf "unknown verdict %s" v
      in
      let repr =
        {
          Ddg.repr_name = get "name";
          repr_next_id = next_id;
          repr_next_inv = next_inv;
          repr_nodes =
            List.map
              (fun (id, k) ->
                ( id, k,
                  List.filter (fun (e : Ddg.edge) -> e.Ddg.src = id) succs,
                  List.filter (fun (e : Ddg.edge) -> e.Ddg.dst = id) preds ))
              nodes;
          repr_invariants = List.rev !invs;
        }
      in
      (* the graph and the scheduler size their per-node tables by the
         largest id: check the ids before building anything *)
      if not (Ddg.compact repr) then badf "node ids are not compact";
      let g = Ddg.of_repr repr in
      if not (Ddg.validate g) then badf "reconstructed graph is malformed";
      let loop =
        Loop.make ~trip_count:(int_of "trip" (get "trip"))
          ~entries:(int_of "entries" (get "entries"))
          ~streams:(List.rev !streams) g
      in
      {
        seed = int_of "seed" (get "seed");
        case = int_of "case" (get "case");
        params = get "params";
        config = get "config";
        n_fus = field "machine" machine "n_fus";
        n_mem_ports = field "machine" machine "n_mem_ports";
        lats;
        options = get "options";
        verdict;
        detail = (match Hashtbl.find_opt fields "detail" with
                 | Some d -> d
                 | None -> "");
        loop;
      }
    | _ -> badf "missing %S header" format_magic
  in
  match build () with
  | t -> Ok t
  | exception Bad msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let rec ensure_dir d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write ~dir t =
  ensure_dir dir;
  let path =
    Filename.concat dir
      (Fmt.str "case%04d-%s.repro" t.case (Ev.fuzz_verdict_name t.verdict))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t));
  path

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | content -> of_string content
  | exception e -> Error (Printexc.to_string e)

let corpus_files dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
