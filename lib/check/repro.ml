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
(* The informational OCaml rendering                                   *)

let kind_constructor = function
  | Op.Fadd -> "Fadd"
  | Op.Fmul -> "Fmul"
  | Op.Fdiv -> "Fdiv"
  | Op.Fsqrt -> "Fsqrt"
  | Op.Load -> "Load"
  | Op.Store -> "Store"
  | Op.Move -> "Move"
  | Op.Load_r -> "Load_r"
  | Op.Store_r -> "Store_r"
  | Op.Spill_load -> "Spill_load"
  | Op.Spill_store -> "Spill_store"

let pp_edge_ml ppf (e : Ddg.edge) =
  Fmt.pf ppf "{src=%d;dst=%d;dep=%s;distance=%d}" e.Ddg.src e.Ddg.dst
    (match e.Ddg.dep with
    | Dep.True -> "True"
    | Dep.Anti -> "Anti"
    | Dep.Output -> "Output")
    e.Ddg.distance

let pp_repr_ml ppf (r : Ddg.repr) =
  Fmt.pf ppf
    "{repr_name=%S;repr_next_id=%d;repr_next_inv=%d;repr_nodes=[%a];\
     repr_invariants=[%a]}"
    r.Ddg.repr_name r.Ddg.repr_next_id r.Ddg.repr_next_inv
    (Fmt.list ~sep:(Fmt.any ";")
       (fun ppf (id, k, succs, preds) ->
         Fmt.pf ppf "(%d,%s,[%a],[%a])" id (kind_constructor k)
           (Fmt.list ~sep:(Fmt.any ";") pp_edge_ml)
           succs
           (Fmt.list ~sep:(Fmt.any ";") pp_edge_ml)
           preds))
    r.Ddg.repr_nodes
    (Fmt.list ~sep:(Fmt.any ";")
       (fun ppf (inv, cs) ->
         Fmt.pf ppf "(%d,[%a])" inv
           (Fmt.list ~sep:(Fmt.any ";") Fmt.int)
           cs))
    r.Ddg.repr_invariants

(* ------------------------------------------------------------------ *)
(* Best-effort frontend AST rendering                                  *)

(* [Compile] allocates array [i] at base [i * (2^20 + 1056)] plus
   [offset * element size]; invert that to recover (array, offset). *)
let decode_base base =
  let unit = (1 lsl 20) + 1056 in
  let cand i =
    if i < 0 then None
    else
      let rem = base - (i * unit) in
      if rem mod 8 = 0 && abs (rem / 8) <= 4096 then Some (i, rem / 8)
      else None
  in
  let i0 = base / unit in
  match cand i0 with
  | Some r -> Some r
  | None -> ( match cand (i0 + 1) with Some r -> Some r | None -> cand (i0 - 1))

(* A loop as a frontend program and its OCaml rendering, or why it is
   not expressible. *)
let render (loop : Loop.t) =
  let module Ast = Hcrf_frontend.Ast in
  let g = loop.Loop.ddg in
  let ( let* ) = Result.bind in
  let err fmt = Fmt.kstr (fun s -> Error s) fmt in
  let* () =
    if Ddg.invariants g = [] then Ok () else err "loop has invariants"
  in
  let* () =
    if
      List.for_all
        (fun (e : Ddg.edge) -> e.Ddg.dep = Dep.True && e.Ddg.distance = 0)
        (Ddg.edges g)
    then Ok ()
    else err "loop has loop-carried or memory-ordering edges"
  in
  (* recover (array index, offset) of every memory node *)
  let decode v =
    match Loop.stream_for loop v with
    | None -> err "memory node %d has no stream" v
    | Some s ->
      if s.Loop.stride <> 8 then err "node %d: stride %d" v s.Loop.stride
      else (
        match decode_base s.Loop.base with
        | Some (i, k) -> Ok (Fmt.str "a%d" i, k)
        | None -> err "node %d: base %d not array-shaped" v s.Loop.base)
  in
  (* single-consumer tree rooted in stores *)
  let rec expr v =
    let k = Ddg.kind g v in
    (* [preds] lists in-edges newest first: the compiler adds them in
       operand order *)
    let ops = List.rev_map (fun (e : Ddg.edge) -> e.Ddg.src) (Ddg.preds g v) in
    let* () =
      match Ddg.succs g v with
      | [ _ ] -> Ok ()
      | l -> err "node %d has %d consumers" v (List.length l)
    in
    match (k, ops) with
    | Op.Load, [] ->
      let* a, off = decode v in
      Ok (Ast.arr ~off a, Fmt.str "(arr %S ~off:%d)" a off)
    | Op.Fsqrt, [ a ] ->
      let* ea, sa = expr a in
      Ok (Ast.sqrt_ ea, Fmt.str "(sqrt_ %s)" sa)
    | Op.Fadd, [ a; b ] ->
      let* ea, sa = expr a in
      let* eb, sb = expr b in
      Ok (Ast.(ea +: eb), Fmt.str "(%s +: %s)" sa sb)
    | Op.Fmul, [ a; b ] ->
      let* ea, sa = expr a in
      let* eb, sb = expr b in
      Ok (Ast.(ea *: eb), Fmt.str "(%s *: %s)" sa sb)
    | Op.Fdiv, [ a; b ] ->
      let* ea, sa = expr a in
      let* eb, sb = expr b in
      Ok (Ast.(ea /: eb), Fmt.str "(%s /: %s)" sa sb)
    | k, ops ->
      err "node %d: %s with %d operands is not expressible" v (Op.kind_name k)
        (List.length ops)
  in
  let* stmts =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match Ddg.kind g v with
        | Op.Store -> (
          match (Ddg.preds g v, Ddg.succs g v) with
          | [ e ], [] ->
            let* a, off = decode v in
            let* ev, sv = expr e.Ddg.src in
            Ok ((Ast.store ~off a ev, Fmt.str "store %S ~off:%d %s" a off sv) :: acc)
          | _ -> err "store %d is not a single-operand sink" v)
        | _ -> Ok acc)
      (Ok []) (Ddg.nodes g)
  in
  let stmts = List.rev stmts in
  let* () = if stmts = [] then err "loop has no stores" else Ok () in
  Ok
    ( Ast.make ~trip_count:loop.Loop.trip_count ~entries:loop.Loop.entries
        ~name:(Loop.name loop) (List.map fst stmts),
      Fmt.str "make ~trip_count:%d ~entries:%d ~name:%S [%a]"
        loop.Loop.trip_count loop.Loop.entries (Loop.name loop)
        (Fmt.list ~sep:(Fmt.any "; ") Fmt.string)
        (List.map snd stmts) )

(* The rendering must survive a round trip through the compiler: the
   compiled program renders to the same text (same trees, arrays and
   offsets), and the node and edge counts match, so no node of [loop]
   lies outside the trees (a dead node is not expressible). *)
let ast_of_loop (loop : Loop.t) : (string, string) result =
  let ( let* ) = Result.bind in
  let err fmt = Fmt.kstr (fun s -> Error s) fmt in
  let* ast, text = render loop in
  match Hcrf_frontend.Compile.compile ast with
  | exception Hcrf_frontend.Compile.Error msg ->
    err "candidate AST rejected by the compiler: %s" msg
  | compiled ->
    let g = loop.Loop.ddg and g' = compiled.Loop.ddg in
    let same_text =
      match render compiled with
      | Ok (_, text') -> String.equal text text'
      | Error _ -> false
    in
    if
      same_text
      && Ddg.num_nodes g' = Ddg.num_nodes g
      && Ddg.num_edges g' = Ddg.num_edges g
    then Ok text
    else err "candidate AST compiles to a different loop"

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
  line "# ocaml: Ddg.of_repr %a" pp_repr_ml r;
  (match ast_of_loop t.loop with
  | Ok ast -> line "# ast: Ast.%s" ast
  | Error reason -> line "# ast: not expressible: %s" reason);
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
      let g = Ddg.of_repr repr in
      if not (Ddg.validate g) then badf "reconstructed graph is malformed";
      (* the scheduler sizes its per-node tables by the largest id *)
      if not (Ddg.compact g) then badf "node ids are not compact";
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
