(* Tests for the loop-language front end: compilation, CSE, dependence
   analysis, IF-conversion — and full functional verification of
   compiled loops through the pipeline executor. *)

open Hcrf_ir
open Hcrf_frontend
open Ast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let daxpy_src =
  make ~name:"daxpy_src"
    [ store "y" (param "a" *: arr "x" +: arr "y") ]

let test_compile_daxpy () =
  let loop = Compile.compile daxpy_src in
  let g = loop.Loop.ddg in
  check "well-formed" true (Ddg.validate g);
  (* 2 loads, 1 mul, 1 add, 1 store *)
  check_int "nodes" 5 (Ddg.num_nodes g);
  check_int "one invariant" 1 (List.length (Ddg.invariants g));
  check_int "streams cover memory ops" 3 (List.length loop.Loop.streams);
  (* y is read and written at the same offset: an anti dependence *)
  check "anti dependence present" true
    (List.exists
       (fun (e : Ddg.edge) -> e.dep = Dep.Anti && e.distance = 0)
       (Ddg.edges g))

let test_cse_within_iteration () =
  (* x[i] appears twice: one load *)
  let loop =
    Compile.compile
      (make ~name:"square" [ store "y" (arr "x" *: arr "x") ])
  in
  check_int "single load" 1
    (Ddg.count_kind loop.Loop.ddg (Op.equal_kind Op.Load))

let test_store_kills_cse () =
  (* load after a store to the same location must be a fresh load fed by
     the store *)
  let loop =
    Compile.compile
      (make ~name:"rmw"
         [ store "a" (arr "a" +: param "c"); def "t" (arr "a" *: arr "a");
           store ~off:1 "b" (var "t") ])
  in
  let g = loop.Loop.ddg in
  check_int "two loads of a" 2
    (Ddg.count_kind g (Op.equal_kind Op.Load));
  (* the second load reads what the store wrote: a true d0 edge *)
  check "store feeds reload" true
    (List.exists
       (fun (e : Ddg.edge) ->
         e.dep = Dep.True && e.distance = 0
         && Op.equal_kind (Ddg.kind g e.src) Op.Store
         && Op.equal_kind (Ddg.kind g e.dst) Op.Load)
       (Ddg.edges g))

let test_loop_carried_scalar () =
  (* s = s@-1 + x[i]: a first-order recurrence with RecMII = add latency *)
  let loop =
    Compile.compile
      (make ~name:"sum" [ def "s" (prev "s" +: arr "x") ])
  in
  check "has recurrence" true (Scc.has_recurrence loop.Loop.ddg);
  let config = Hcrf_model.Presets.published "S128" in
  check_int "recmii = 4" 4 (Hcrf_sched.Mii.compute config loop.Loop.ddg)

let test_memory_carried_dependence () =
  (* b[i] = b[i-1] + x[i]: flow through memory, distance 1 *)
  let loop =
    Compile.compile
      (make ~name:"scan" [ store "b" (arr ~off:(-1) "b" +: arr "x") ])
  in
  let g = loop.Loop.ddg in
  check "true memory dep distance 1" true
    (List.exists
       (fun (e : Ddg.edge) ->
         e.dep = Dep.True && e.distance = 1
         && Op.equal_kind (Ddg.kind g e.src) Op.Store)
       (Ddg.edges g));
  check "is a recurrence" true (Scc.has_recurrence g)

let test_forward_memory_flow () =
  (* a[i+2] = f(a[i]): iteration i+2 loads what iteration i stored — a
     true memory dependence of distance 2, i.e. a recurrence *)
  let loop =
    Compile.compile
      (make ~name:"shift" [ store ~off:2 "a" (arr "a" *: param "w") ])
  in
  let g = loop.Loop.ddg in
  check "true memory flow, distance 2" true
    (List.exists
       (fun (e : Ddg.edge) ->
         e.dep = Dep.True && e.distance = 2
         && Op.equal_kind (Ddg.kind g e.src) Op.Store)
       (Ddg.edges g));
  check "is a recurrence" true (Scc.has_recurrence g);
  (* and the mirror case: a[i] = f(a[i+2]) reads ahead of the store,
     an anti dependence of distance 2 *)
  let loop' =
    Compile.compile
      (make ~name:"shiftback" [ store "a" (arr ~off:2 "a" *: param "w") ])
  in
  check "anti distance 2" true
    (List.exists
       (fun (e : Ddg.edge) -> e.dep = Dep.Anti && e.distance = 2)
       (Ddg.edges loop'.Loop.ddg))

let test_if_conversion () =
  (* if c then s = a else s = b; both sides always execute, merged by a
     select *)
  let src =
    make ~name:"clip"
      [
        def "c" (arr "x" -: param "t");
        if_ (var "c")
          [ def "v" (arr "x" *: param "g") ]
          [ def "v" (param "t" +: arr "x") ];
        store "y" (var "v" +: var "c");
      ]
  in
  let converted = If_convert.run src in
  check "no conditionals left" true
    (List.for_all
       (function If _ -> false | Def _ | Store _ -> true)
       converted.Ast.body);
  let loop = Compile.compile src in
  check "compiles" true (Ddg.validate loop.Loop.ddg);
  (* both branch bodies present: two ops for the branches + the select
     blend (2 muls + add) *)
  check "bigger than one branch" true (Ddg.num_nodes loop.Loop.ddg >= 9)

let test_if_conversion_store () =
  (* a conditional store becomes an unconditional read-modify-write *)
  let src =
    make ~name:"condstore"
      [
        def "c" (arr "x" -: param "t");
        if_ (var "c") [ store "y" (arr "x") ] [];
      ]
  in
  let loop = Compile.compile src in
  let g = loop.Loop.ddg in
  check_int "store is unconditional" 1
    (Ddg.count_kind g (Op.equal_kind Op.Store));
  (* the old value of y[i] is loaded to blend *)
  check "y is loaded for the blend" true
    (Ddg.count_kind g (Op.equal_kind Op.Load) >= 2)

let test_undefined_scalar_rejected () =
  check "undefined scalar" true
    (try
       ignore (Compile.compile (make ~name:"bad" [ store "y" (var "nope") ]));
       false
     with Compile.Error _ -> true)

let test_nested_if () =
  let src =
    make ~name:"nested"
      [
        def "c1" (arr "x" -: param "a");
        def "c2" (arr "x" -: param "b");
        if_ (var "c1")
          [ if_ (var "c2") [ def "v" (arr "x" *: arr "x") ]
              [ def "v" (arr "x" +: arr "x") ] ]
          [ def "v" (param "a" *: arr "x") ];
        store "y" (var "v");
      ]
  in
  let loop = Compile.compile src in
  check "nested conversion compiles" true (Ddg.validate loop.Loop.ddg)

(* end to end: compile, schedule on a hierarchical clustered RF, and
   execute the pipeline against the sequential reference *)
let test_functional_end_to_end () =
  let sources =
    [
      daxpy_src;
      make ~name:"scan2" [ store "b" (arr ~off:(-1) "b" +: arr "x") ];
      make ~name:"horner2" [ def "p" ((prev "p" *: param "x") +: arr "c") ];
      make ~name:"clipped"
        [
          def "c" (arr "x" -: param "t");
          if_ (var "c")
            [ def "v" (sqrt_ (arr "x")) ]
            [ def "v" (arr "x" /: param "t") ];
          store "y" (var "v");
        ];
    ]
  in
  List.iter
    (fun src ->
      let loop = Compile.compile src in
      List.iter
        (fun cname ->
          let config = Hcrf_model.Presets.published cname in
          match Hcrf_core.Mirs_hc.schedule config loop.Loop.ddg with
          | Error _ ->
            Alcotest.fail (Fmt.str "%s on %s: no schedule" src.Ast.name cname)
          | Ok o -> (
            match Hcrf_pipesim.Pipe_exec.check loop o ~iterations:10 () with
            | Ok _ -> ()
            | Error e ->
              Alcotest.fail
                (Fmt.str "%s on %s: %a" src.Ast.name cname
                   Hcrf_pipesim.Pipe_exec.pp_error e)))
        [ "S128"; "4C32"; "2C32S32" ])
    sources

(* Random programs: build well-formed sources by construction, compile
   them, schedule on a rotating set of configurations, and verify the
   pipeline functionally.  Exercises CSE, dependence analysis,
   IF-conversion, scheduling, allocation and the executor together. *)
let random_source seed =
  let rng = Hcrf_workload.Rng.create ~seed in
  let arrays = [| "a"; "b"; "c"; "d" |] in
  let params = [| "p"; "q" |] in
  let scalars = ref [] in
  let pick l = List.nth l (Hcrf_workload.Rng.int rng (List.length l)) in
  let rec expr depth =
    let leaf () =
      match Hcrf_workload.Rng.int rng 4 with
      | 0 | 1 ->
        arr
          ~off:(Hcrf_workload.Rng.range rng (-2) 2)
          arrays.(Hcrf_workload.Rng.int rng (Array.length arrays))
      | 2 when !scalars <> [] ->
        if Hcrf_workload.Rng.bool rng 0.3 then
          prev ~d:(Hcrf_workload.Rng.range rng 1 3) (pick !scalars)
        else var (pick !scalars)
      | _ -> param params.(Hcrf_workload.Rng.int rng (Array.length params))
    in
    if depth <= 0 then leaf ()
    else
      match Hcrf_workload.Rng.int rng 5 with
      | 0 -> expr (depth - 1) +: expr (depth - 1)
      | 1 -> expr (depth - 1) *: expr (depth - 1)
      | 2 -> expr (depth - 1) -: expr (depth - 1)
      | 3 -> sqrt_ (expr (depth - 1))
      | _ -> leaf ()
  in
  let rec stmts n ~allow_if =
    List.concat
      (List.init n (fun _ ->
           match Hcrf_workload.Rng.int rng 4 with
           | 0 | 1 ->
             let name = Fmt.str "s%d" (Hcrf_workload.Rng.int rng 4) in
             let s = def name (expr 1 +: expr 1) in
             scalars := name :: List.filter (( <> ) name) !scalars;
             [ s ]
           | 2 ->
             [ store
                 ~off:(Hcrf_workload.Rng.range rng (-1) 1)
                 arrays.(Hcrf_workload.Rng.int rng (Array.length arrays))
                 (expr 2) ]
           | _ when allow_if ->
             let c = Fmt.str "s%d" (Hcrf_workload.Rng.int rng 4) in
             scalars := c :: List.filter (( <> ) c) !scalars;
             def c (expr 0 +: expr 0)
             :: [ if_ (var c) (stmts 2 ~allow_if:false)
                    (stmts 1 ~allow_if:false) ]
           | _ -> [ store "out" (expr 2) ]))
  in
  (* pre-define every scalar so a branch definition always has a prior
     binding to merge with (a scalar local to one branch is invisible
     after IF-conversion, by design) *)
  let preamble =
    List.init 4 (fun k ->
        let name = Fmt.str "s%d" k in
        scalars := name :: !scalars;
        def name (arr arrays.(k mod Array.length arrays)))
  in
  let body = preamble @ stmts 5 ~allow_if:true @ [ store "out" (expr 2) ] in
  make ~name:(Fmt.str "rand%d" seed) ~trip_count:64 body

let prop_random_programs =
  let configs = [| "S64"; "S32"; "4C32"; "2C32S32"; "4C16S16" |] in
  QCheck.Test.make ~name:"random programs pipe-execute correctly" ~count:40
    QCheck.(int_range 0 39)
    (fun seed ->
      let src = random_source (seed * 131 + 7) in
      let loop = Compile.compile src in
      let config =
        Hcrf_model.Presets.published configs.(seed mod Array.length configs)
      in
      match Hcrf_eval.Runner.run_loop config loop with
      | None -> false
      | Some r -> (
        match
          Hcrf_pipesim.Pipe_exec.check loop r.Hcrf_eval.Runner.outcome
            ~iterations:8 ()
        with
        | Ok _ -> true
        | Error e ->
          Fmt.epr "random program %s on %s: %a@." src.Ast.name
            config.Hcrf_machine.Config.name Hcrf_pipesim.Pipe_exec.pp_error e;
          false))

(* Semantic cross-check: interpret the IF-converted AST directly —
   without ever building a dependence graph — and require the final
   memory image to match [Ref_exec.run] on the compiled loop exactly.
   The interpreter mirrors the compiler's observable conventions
   (per-iteration CSE killed by same-location stores, parameter ids in
   first-use order, array allocation in the order [Compile.streams]
   touches references, select as two guarded multiplies and a blend) but
   shares none of its code paths, so a dataflow bug in either side shows
   up as a float mismatch. *)

type ival = Inum of float | Ipar of int

let interp_value kind ivals =
  let ops = List.filter_map (function Inum v -> Some v | Ipar _ -> None) ivals in
  let invs =
    (* the executor feeds each distinct invariant to a consumer once,
       however many edges connect them *)
    List.sort_uniq compare
      (List.filter_map (function Ipar i -> Some i | Inum _ -> None) ivals)
  in
  Hcrf_pipesim.Semantics.combine kind ops
    ~invariants:(List.map Hcrf_pipesim.Semantics.invariant_value invs)
    ~memory:None

(* Array allocation indices as [Compile.streams] assigns them: it walks
   the ref list with [rev_map], so the reference compiled LAST gets the
   first fresh index.  Reproduce the compiler's CSE-aware ref list
   structurally (values play no part). *)
let interp_array_indices body =
  let refs = ref [] in
  let live = Hashtbl.create 16 in
  let rec scan = function
    | Arr (a, k) ->
      if not (Hashtbl.mem live (a, k)) then begin
        Hashtbl.replace live (a, k) ();
        refs := (a, k) :: !refs
      end
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> scan a; scan b
    | Sqrt a -> scan a
    | Select (c, a, b) ->
      (* the compiler materialises the condition twice *)
      scan c; scan a; scan c; scan b
    | Var _ | Param _ | Prev _ -> ()
  in
  List.iter
    (function
      | Def (_, e) -> scan e
      | Store (a, k, e) ->
        scan e;
        refs := (a, k) :: !refs;
        Hashtbl.remove live (a, k)
      | If _ -> Alcotest.fail "interp: conditional survived IF-conversion")
    body;
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun (a, _) ->
      if not (Hashtbl.mem arrays a) then
        Hashtbl.replace arrays a (Hashtbl.length arrays))
    !refs;
  arrays

(* Run [iterations] of an IF-converted body; returns the final memory
   image keyed by address, laid out like the compiled loop's streams. *)
let interpret (src : Ast.t) ~iterations =
  let body = src.Ast.body in
  let arrays = interp_array_indices body in
  let addr a k i =
    let idx = Hashtbl.find arrays a in
    (idx * (1 lsl 20)) + (idx * 1056) + ((k + i) * 8)
  in
  let params = Hashtbl.create 8 in
  let param_id s =
    match Hashtbl.find_opt params s with
    | Some id -> id
    | None ->
      let id = Hashtbl.length params in
      Hashtbl.replace params s id;
      id
  in
  let scalars = Hashtbl.create 8 in
  let memory = Hashtbl.create 64 in
  let read a =
    match Hashtbl.find_opt memory a with
    | Some v -> v
    | None -> Hcrf_pipesim.Semantics.memory_init a
  in
  let cse = Hashtbl.create 16 in
  for i = 0 to iterations - 1 do
    Hashtbl.reset cse;
    List.iter
      (fun stmt ->
        (* evaluation order matters only for parameter-id assignment;
           keep it explicitly left-to-right, as the compiler traverses *)
        let rec eval e : ival =
          match e with
          | Param s -> Ipar (param_id s)
          | Var s -> (
            match Hashtbl.find_opt scalars s with
            | Some v -> Inum v
            | None -> Alcotest.fail ("interp: undefined scalar " ^ s))
          | Prev _ -> Alcotest.fail "interp: prev unsupported"
          | Arr (a, k) -> (
            match Hashtbl.find_opt cse (a, k) with
            | Some v -> Inum v
            | None ->
              let v = read (addr a k i) in
              Hashtbl.replace cse (a, k) v;
              Inum v)
          | Add (a, b) | Sub (a, b) ->
            let va = eval a in
            let vb = eval b in
            Inum (interp_value Op.Fadd [ va; vb ])
          | Mul (a, b) ->
            let va = eval a in
            let vb = eval b in
            Inum (interp_value Op.Fmul [ va; vb ])
          | Div (a, b) ->
            let va = eval a in
            let vb = eval b in
            Inum (interp_value Op.Fdiv [ va; vb ])
          | Sqrt a -> Inum (interp_value Op.Fsqrt [ eval a ])
          | Select (c, a, b) ->
            let vc1 = eval c in
            let va = eval a in
            let m1 = interp_value Op.Fmul [ vc1; va ] in
            let vc2 = eval c in
            let vb = eval b in
            let m2 = interp_value Op.Fmul [ vc2; vb ] in
            Inum (interp_value Op.Fadd [ Inum m1; Inum m2 ])
        in
        match stmt with
        | Def (s, e) -> (
          match eval e with
          | Inum v -> Hashtbl.replace scalars s v
          | Ipar _ -> Alcotest.fail ("interp: " ^ s ^ " bound to a parameter"))
        | Store (a, k, e) ->
          let v = interp_value Op.Store [ eval e ] in
          Hashtbl.replace memory (addr a k i) v;
          Hashtbl.remove cse (a, k)
        | If _ -> Alcotest.fail "interp: conditional survived IF-conversion")
      body
  done;
  memory

(* Like [random_source] but without loop-carried scalars: [prev] reaches
   back before iteration 0, where the executor substitutes live-in
   values keyed by node id — information an AST-level interpreter cannot
   have.  Adds direct selects for coverage beyond IF-conversion. *)
let random_source_carried_free seed =
  let rng = Hcrf_workload.Rng.create ~seed in
  let arrays = [| "a"; "b"; "c"; "d" |] in
  let params = [| "p"; "q" |] in
  let scalars = ref [] in
  let pick l = List.nth l (Hcrf_workload.Rng.int rng (List.length l)) in
  let rec expr depth =
    let leaf () =
      match Hcrf_workload.Rng.int rng 4 with
      | 0 | 1 ->
        arr
          ~off:(Hcrf_workload.Rng.range rng (-2) 2)
          arrays.(Hcrf_workload.Rng.int rng (Array.length arrays))
      | 2 when !scalars <> [] -> var (pick !scalars)
      | _ -> param params.(Hcrf_workload.Rng.int rng (Array.length params))
    in
    if depth <= 0 then leaf ()
    else
      match Hcrf_workload.Rng.int rng 7 with
      | 0 -> expr (depth - 1) +: expr (depth - 1)
      | 1 -> expr (depth - 1) *: expr (depth - 1)
      | 2 -> expr (depth - 1) -: expr (depth - 1)
      | 3 -> expr (depth - 1) /: expr (depth - 1)
      | 4 -> sqrt_ (expr (depth - 1))
      | 5 -> select (expr 0) (expr (depth - 1)) (expr (depth - 1))
      | _ -> leaf ()
  in
  let rec stmts n ~allow_if =
    List.concat
      (List.init n (fun _ ->
           match Hcrf_workload.Rng.int rng 4 with
           | 0 | 1 ->
             let name = Fmt.str "s%d" (Hcrf_workload.Rng.int rng 4) in
             let s = def name (expr 1 +: expr 1) in
             scalars := name :: List.filter (( <> ) name) !scalars;
             [ s ]
           | 2 ->
             [ store
                 ~off:(Hcrf_workload.Rng.range rng (-1) 1)
                 arrays.(Hcrf_workload.Rng.int rng (Array.length arrays))
                 (expr 2) ]
           | _ when allow_if ->
             let c = Fmt.str "s%d" (Hcrf_workload.Rng.int rng 4) in
             scalars := c :: List.filter (( <> ) c) !scalars;
             def c (expr 0 +: expr 0)
             :: [ if_ (var c) (stmts 2 ~allow_if:false)
                    (stmts 1 ~allow_if:false) ]
           | _ -> [ store "out" (expr 2) ]))
  in
  let preamble =
    List.init 4 (fun k ->
        let name = Fmt.str "s%d" k in
        scalars := name :: !scalars;
        def name (arr arrays.(k mod Array.length arrays)))
  in
  let body = preamble @ stmts 5 ~allow_if:true @ [ store "out" (expr 2) ] in
  make ~name:(Fmt.str "noprev%d" seed) ~trip_count:64 body

let prop_interpreter_agrees =
  QCheck.Test.make ~name:"compiled loops match direct AST interpretation"
    ~count:60
    QCheck.(int_range 0 59)
    (fun seed ->
      let src = random_source_carried_free ((seed * 257) + 13) in
      let loop = Compile.compile src in
      let expected = interpret (If_convert.run src) ~iterations:4 in
      let got =
        (Hcrf_pipesim.Ref_exec.run loop ~iterations:4).Hcrf_pipesim.Ref_exec
        .memory
      in
      let agrees =
        Hashtbl.length expected = Hashtbl.length got
        && Hashtbl.fold
             (fun a v ok ->
               ok && compare (Hashtbl.find_opt got a) (Some v) = 0)
             expected true
      in
      if not agrees then
        Fmt.epr "interpreter mismatch on %s (%d vs %d addresses)@."
          src.Ast.name (Hashtbl.length expected) (Hashtbl.length got);
      agrees)

(* The digest reads structure only: a kernel that shares one node (or
   one string) twice digests as one built from fresh copies, while
   every single-field edit, and every move of a statement across an
   [If] branch or list boundary, gives a digest of its own. *)
let test_digest_structural () =
  let e = arr "x" in
  let shared = make ~name:"k" [ store "y" (e *: e) ] in
  let fresh = make ~name:"k" [ store "y" (arr "x" *: arr "x") ] in
  let apart = String.init 1 (fun _ -> 'x') in
  let built = make ~name:(String.make 1 'k') [ store "y" (arr apart *: arr "x") ] in
  check "shared node digests as fresh copies" true
    (String.equal (digest shared) (digest fresh));
  check "strings built apart digest as literals" true
    (String.equal (digest fresh) (digest built));
  let s1 = def "t" (arr "x") and s2 = store "y" (var "t") in
  let c = param "c" in
  let variants =
    [ fresh;
      make ~name:"k2" [ store "y" (arr "x" *: arr "x") ];
      make ~name:"k" ~trip_count:999 [ store "y" (arr "x" *: arr "x") ];
      make ~name:"k" ~entries:2 [ store "y" (arr "x" *: arr "x") ];
      make ~name:"k" [ store ~off:1 "y" (arr "x" *: arr "x") ];
      make ~name:"k" [ store "y" (arr ~off:(-1) "x" *: arr "x") ];
      make ~name:"k" [ store "y" (arr "x" +: arr "x") ];
      make ~name:"k" [ store "y" (arr "x" -: arr "x") ];
      make ~name:"k" [ store "y" (arr "x" /: arr "x") ];
      make ~name:"k" [ store "z" (arr "x" *: arr "x") ];
      make ~name:"k" [ store "y" (param "x" *: arr "x") ];
      make ~name:"k" [ store "y" (sqrt_ (arr "x") *: arr "x") ];
      make ~name:"k" [ def "y" (arr "x" *: arr "x") ];
      make ~name:"k" [ s1; s2 ];
      make ~name:"k" [ s1; store "y" (prev "t") ];
      make ~name:"k" [ s1; store "y" (prev ~d:2 "t") ];
      make ~name:"k" [ if_ c [ s1; s2 ] [] ];
      make ~name:"k" [ if_ c [ s1 ] [ s2 ] ];
      make ~name:"k" [ if_ c [] [ s1; s2 ] ];
      make ~name:"k" [ if_ c [ s1 ] []; s2 ];
      make ~name:"k" [ store "y" (select c (arr "x") (arr "x")) ];
      make ~name:"k" [ store "y" (select c (arr "x") (arr ~off:1 "x")) ] ]
  in
  let digests = List.map digest variants in
  check_int "every variant digests apart" (List.length variants)
    (List.length (List.sort_uniq String.compare digests))

let tests =
  [
    ("frontend: daxpy", `Quick, test_compile_daxpy);
    ("frontend: cse", `Quick, test_cse_within_iteration);
    ("frontend: store kills cse", `Quick, test_store_kills_cse);
    ("frontend: loop-carried scalar", `Quick, test_loop_carried_scalar);
    ("frontend: memory-carried dep", `Quick, test_memory_carried_dependence);
    ("frontend: memory flow directions", `Quick, test_forward_memory_flow);
    ("frontend: if conversion", `Quick, test_if_conversion);
    ("frontend: conditional store", `Quick, test_if_conversion_store);
    ("frontend: undefined scalar", `Quick, test_undefined_scalar_rejected);
    ("frontend: nested if", `Quick, test_nested_if);
    ("frontend: functional end-to-end", `Quick, test_functional_end_to_end);
    ("ast: digest ignores sharing, separates single-field edits", `Quick,
     test_digest_structural);
    QCheck_alcotest.to_alcotest prop_random_programs;
    QCheck_alcotest.to_alcotest prop_interpreter_agrees;
  ]
