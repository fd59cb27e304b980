(* Tests for the machine description: capacities, RF organizations and
   their notation, latencies and processor configurations. *)

open Hcrf_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cap *)

let test_cap () =
  check "fits finite" true (Cap.fits 4 (Cap.Finite 4));
  check "exceeds finite" true (Cap.exceeds 5 (Cap.Finite 4));
  check "inf fits anything" true (Cap.fits max_int Cap.Inf);
  check "min finite inf" true (Cap.equal (Cap.min Cap.Inf (Cap.Finite 3)) (Cap.Finite 3));
  check_int "to_int_exn" 7 (Cap.to_int_exn (Cap.Finite 7));
  Alcotest.check_raises "to_int_exn on inf"
    (Invalid_argument "Cap.to_int_exn: unbounded capacity") (fun () ->
      ignore (Cap.to_int_exn Cap.Inf));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Cap.of_int: negative capacity") (fun () ->
      ignore (Cap.of_int (-1)))

(* ------------------------------------------------------------------ *)
(* Rf notation *)

let test_rf_notation_print () =
  check_str "monolithic" "S128" (Rf.notation (Rf.monolithic 128));
  check_str "clustered" "4C32"
    (Rf.notation (Rf.clustered ~clusters:4 ~regs_per_bank:32 ()));
  check_str "hierarchical" "2C32S64"
    (Rf.notation
       (Rf.hierarchical ~clusters:2 ~regs_per_bank:32 ~shared_regs:64 ()))

let test_rf_notation_parse () =
  List.iter
    (fun s -> check_str ("round trip " ^ s) s (Rf.notation (Rf.of_notation s)))
    [ "S128"; "S64"; "S32"; "2C64"; "4C32"; "1C64S32"; "2C32S32"; "8C16S16";
      "Sinf"; "4CinfSinf" ]

let test_rf_notation_rejects () =
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (try
           ignore (Rf.of_notation s);
           false
         with Failure _ -> true))
    [ "X128"; "C32"; "4C"; "S"; "0C32"; "fooS12" ]

(* ------------------------------------------------------------------ *)
(* Generalized notation: access-port groups *)

let acc pr pw = Rf.access ~pr:(Cap.Finite pr) ~pw:(Cap.Finite pw)

let test_rf_notation_print_generalized () =
  check_str "monolithic access" "S64@r4w2"
    (Rf.notation (Rf.monolithic ~access:(acc 4 2) 64));
  check_str "clustered access" "4C32@r3w2"
    (Rf.notation
       (Rf.clustered ~access:(acc 3 2) ~clusters:4 ~regs_per_bank:32 ()));
  check_str "hierarchical local access" "4C16S16@r2w1"
    (Rf.notation
       (Rf.hierarchical ~local_access:(acc 2 1) ~clusters:4 ~regs_per_bank:16
          ~shared_regs:16 ()));
  check_str "shared access" "2C32S32@Sr4w2"
    (Rf.notation
       (Rf.hierarchical ~shared_access:(acc 4 2) ~clusters:2 ~regs_per_bank:32
          ~shared_regs:32 ()));
  check_str "both access groups" "4C16S16@r2w1@Sr4w2"
    (Rf.notation
       (Rf.hierarchical ~local_access:(acc 2 1) ~shared_access:(acc 4 2)
          ~clusters:4 ~regs_per_bank:16 ~shared_regs:16 ()))

let test_rf_notation_parse_generalized () =
  List.iter
    (fun s -> check_str ("round trip " ^ s) s (Rf.notation (Rf.of_notation s)))
    [ "S64@r4w2"; "4C32@r3w2"; "4C16S16@r2w1"; "2C32S32@Sr4w2";
      "4C16S16@rinfw1"; "4C16S16@r2w1@Sr4w2" ]

let test_rf_notation_rejects_generalized () =
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (try
           ignore (Rf.of_notation s);
           false
         with Failure _ -> true))
    [ "S64@Sr2w1" (* shared group without a shared bank *);
      "S64@r2" (* missing write count *);
      "S64@rw2" (* missing read count *);
      "4C16S16@r2w1@r2w1" (* duplicate group *);
      "4C16S16@Sr2w1@Sr4w4" (* duplicate shared group *) ]

(* The retired third level is refused by name, not parsed as a typo. *)
let test_rf_third_level_refused () =
  let names_level msg =
    let key = "third register-file level" in
    let n = String.length key in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = key || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun s ->
      check ("refuses " ^ s) true
        (try
           ignore (Rf.of_notation s);
           false
         with Failure msg -> names_level msg))
    [ "4C16S16-L3:64"; "4C16S16-L3:64l2s2"; "4C16S16@Tr2w1";
      "4C16S16-L3:64@r2w1" ];
  let t = Rf.of_notation "4C16S16@r2w1" in
  check "total" true (Cap.equal (Rf.total_regs t) (Cap.Finite 80));
  check "local access parsed" true
    (match Rf.local_access t with
    | Some a -> Rf.equal_access a (acc 2 1)
    | None -> false);
  check "no access on legacy" true
    (Rf.local_access (Rf.of_notation "4C16S16") = None)

(* Absent generalized fields leave the legacy notation untouched: the
   extended grammar is a strict superset. *)
let test_rf_legacy_notation_stable () =
  List.iter
    (fun s ->
      let t = Rf.of_notation s in
      check_str ("legacy " ^ s) s (Rf.notation t);
      check ("no @ in " ^ s) false (String.contains (Rf.notation t) '@'))
    [ "S128"; "4C32"; "2C32S32"; "8C16S16" ]

let cap_gen =
  QCheck.Gen.(
    frequency [ (5, map (fun n -> Cap.Finite n) (int_range 1 16));
                (1, return Cap.Inf) ])

let access_gen =
  QCheck.Gen.(
    opt (map2 (fun pr pw -> Rf.access ~pr ~pw) cap_gen cap_gen))

let generalized_rf_gen =
  QCheck.Gen.(
    let* shape = int_range 0 2 in
    match shape with
    | 0 ->
      let* regs = int_range 1 256 and* access = access_gen in
      return (Rf.monolithic ?access regs)
    | 1 ->
      let* clusters = int_range 2 8
      and* regs = int_range 1 128
      and* access = access_gen in
      return (Rf.clustered ?access ~clusters ~regs_per_bank:regs ())
    | _ ->
      let* clusters = int_range 1 8
      and* regs = int_range 1 128
      and* shared = int_range 1 256
      and* local_access = access_gen
      and* shared_access = access_gen in
      return
        (Rf.hierarchical ?local_access ?shared_access ~clusters
           ~regs_per_bank:regs ~shared_regs:shared ()))

let prop_generalized_roundtrip =
  QCheck.Test.make ~name:"generalized rf notation round-trips" ~count:500
    (QCheck.make ~print:Rf.notation generalized_rf_gen)
    (fun rf -> Rf.equal rf (Rf.of_notation (Rf.notation rf)))

let test_rf_capacities () =
  let h = Rf.of_notation "4C16S64" in
  check "local regs" true (Cap.equal (Rf.local_regs h) (Cap.Finite 16));
  check "shared regs" true (Cap.equal (Rf.shared_regs h) (Cap.Finite 64));
  check "total" true (Cap.equal (Rf.total_regs h) (Cap.Finite 128));
  check_int "clusters" 4 (Rf.clusters h);
  check "hierarchical" true (Rf.is_hierarchical h);
  check "clustered too" true (Rf.is_clustered h);
  let m = Rf.monolithic 64 in
  check "monolithic not clustered" false (Rf.is_clustered m);
  check "monolithic total" true (Cap.equal (Rf.total_regs m) (Cap.Finite 64));
  let c = Rf.clustered ~clusters:2 ~regs_per_bank:32 () in
  check "clustered total" true (Cap.equal (Rf.total_regs c) (Cap.Finite 64));
  check "flat cluster is not hierarchical" false (Rf.is_hierarchical c)

let test_rf_clustered_needs_two () =
  Alcotest.check_raises "1-cluster flat RF rejected"
    (Invalid_argument "Rf.clustered: needs >= 2 clusters") (fun () ->
      ignore (Rf.clustered ~clusters:1 ~regs_per_bank:32 ()))

(* ------------------------------------------------------------------ *)
(* Latencies *)

let test_latencies_baseline () =
  let l = Latencies.baseline in
  check_int "fadd" 4 (Latencies.of_kind l Hcrf_ir.Op.Fadd);
  check_int "fdiv" 17 (Latencies.of_kind l Hcrf_ir.Op.Fdiv);
  check_int "fsqrt" 30 (Latencies.of_kind l Hcrf_ir.Op.Fsqrt);
  check_int "load" 2 (Latencies.of_kind l Hcrf_ir.Op.Load);
  check_int "store" 1 (Latencies.of_kind l Hcrf_ir.Op.Store);
  check_int "spill load = load" 2 (Latencies.of_kind l Hcrf_ir.Op.Spill_load);
  check "div not pipelined" false (Latencies.pipelined Hcrf_ir.Op.Fdiv);
  check "sqrt not pipelined" false (Latencies.pipelined Hcrf_ir.Op.Fsqrt);
  check "add pipelined" true (Latencies.pipelined Hcrf_ir.Op.Fadd);
  check "load pipelined" true (Latencies.pipelined Hcrf_ir.Op.Load)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_defaults () =
  let c = Config.make (Rf.monolithic 128) in
  check_int "8 FUs" 8 c.Config.n_fus;
  check_int "4 mem ports" 4 c.Config.n_mem_ports;
  check_int "1 cluster" 1 (Config.clusters c);
  check_int "8 fus per cluster" 8 (Config.fus_per_cluster c);
  check_str "auto name" "S128" c.Config.name

let test_config_distribution () =
  let c = Config.make (Rf.of_notation "4C32") in
  check_int "2 fus per cluster" 2 (Config.fus_per_cluster c);
  check_int "1 mem port per cluster" 1 (Config.mem_ports_per_cluster c);
  let h = Config.make (Rf.of_notation "8C16S16") in
  check_int "1 fu per cluster" 1 (Config.fus_per_cluster h);
  (* hierarchical: memory ports are global *)
  check_int "4 global mem ports" 4 (Config.mem_ports_per_cluster h)

let test_config_rejects_indivisible () =
  check "3 clusters of 8 FUs rejected" true
    (try
       ignore
         (Config.make
            (Rf.hierarchical ~clusters:3 ~regs_per_bank:16 ~shared_regs:32 ()));
       false
     with Invalid_argument _ -> true);
  (* 8 flat clusters with 4 memory ports is impossible (the paper's
     motivation for the hierarchy) *)
  check "8 flat clusters rejected" true
    (try
       ignore (Config.make (Rf.clustered ~clusters:8 ~regs_per_bank:16 ()));
       false
     with Invalid_argument _ -> true);
  (* ... but 8 hierarchical clusters are fine *)
  check "8 hierarchical clusters ok" true
    (try
       ignore
         (Config.make
            (Rf.hierarchical ~clusters:8 ~regs_per_bank:16 ~shared_regs:16 ()));
       true
     with Invalid_argument _ -> false)

let test_config_miss_cycles () =
  let c = Config.make ~cycle_ns:1.0 (Rf.monolithic 64) in
  check_int "10ns at 1ns clock" 10 (Config.miss_cycles c);
  let f = Config.make ~cycle_ns:0.389 (Rf.monolithic 64) in
  check_int "10ns at 0.389ns clock" 26 (Config.miss_cycles f)

let prop_notation_roundtrip =
  QCheck.Test.make ~name:"rf notation round-trips" ~count:200
    QCheck.(
      triple (int_range 1 8) (int_range 1 512) (option (int_range 1 512)))
    (fun (x, y, z) ->
      QCheck.assume (z <> None || x >= 2);
      let rf =
        match z with
        | None ->
          if x = 1 then Rf.monolithic y
          else Rf.clustered ~clusters:x ~regs_per_bank:y ()
        | Some z ->
          Rf.hierarchical ~clusters:x ~regs_per_bank:y ~shared_regs:z ()
      in
      Rf.equal rf (Rf.of_notation (Rf.notation rf)))

let tests =
  [
    ("cap: operations", `Quick, test_cap);
    ("rf: notation print", `Quick, test_rf_notation_print);
    ("rf: notation parse", `Quick, test_rf_notation_parse);
    ("rf: notation rejects", `Quick, test_rf_notation_rejects);
    ("rf: generalized notation print", `Quick,
     test_rf_notation_print_generalized);
    ("rf: generalized notation parse", `Quick,
     test_rf_notation_parse_generalized);
    ("rf: generalized notation rejects", `Quick,
     test_rf_notation_rejects_generalized);
    ("rf: third-level notation refused", `Quick, test_rf_third_level_refused);
    ("rf: legacy notation stable", `Quick, test_rf_legacy_notation_stable);
    ("rf: capacities", `Quick, test_rf_capacities);
    ("rf: clustered needs two", `Quick, test_rf_clustered_needs_two);
    ("latencies: baseline", `Quick, test_latencies_baseline);
    ("config: defaults", `Quick, test_config_defaults);
    ("config: distribution", `Quick, test_config_distribution);
    ("config: indivisible", `Quick, test_config_rejects_indivisible);
    ("config: miss cycles", `Quick, test_config_miss_cycles);
    QCheck_alcotest.to_alcotest prop_notation_roundtrip;
    QCheck_alcotest.to_alcotest prop_generalized_roundtrip;
  ]
