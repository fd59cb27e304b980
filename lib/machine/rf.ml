(** Register-file organizations and the paper's [xCy-Sz] notation,
    generalized with per-bank access-port constraints.

    [x] is the number of clusters, [y] the registers per first-level
    (distributed) bank and [z] the registers in the shared second-level
    bank.  [lp]/[sp] are the per-bank input (LoadR) and output (StoreR)
    ports between levels — or, for a non-hierarchical clustered RF, the
    per-bank input/output ports of the inter-cluster bus network.

    Beyond the paper's fixed design space, a bank may carry an explicit
    {!access} constraint bounding how many register reads/writes its
    cell array serves per cycle (the read-port-count-reduction axis).
    Every such field defaults to "absent", and an absent field changes
    neither the notation, the scheduler's resource model, nor any cache
    fingerprint — the legacy encodings are a strict subset of the
    generalized one. *)

(** Explicit per-bank access ports: at most [pr] register reads and
    [pw] register writes per cycle on that bank.  [None] everywhere
    means "uniformly provisioned" — the paper's implicit assumption that
    a bank carries as many access ports as its consumers demand. *)
type access = { pr : Cap.t; pw : Cap.t }

let access ~pr ~pw = { pr; pw }

let equal_access a b = Cap.equal a.pr b.pr && Cap.equal a.pw b.pw

(* A fully unbounded constraint constrains nothing: canonicalize it to
   the absent field, so the explicitly-uniform encoding ([@rinfwinf])
   and the legacy one are the same value — same notation, same
   schedules, same cache fingerprints. *)
let norm_access = function
  | Some { pr = Cap.Inf; pw = Cap.Inf } -> None
  | a -> a

type org =
  | Monolithic of { regs : Cap.t; access : access option }
      (** a single shared bank feeding all FUs and memory ports ([Sz]) *)
  | Clustered of {
      clusters : int;
      regs_per_bank : Cap.t;
      lp : Cap.t;  (** input ports per bank (bus side) *)
      sp : Cap.t;  (** output ports per bank (bus side) *)
      buses : Cap.t;
      access : access option;  (** per first-level bank *)
    }  (** FUs *and* memory ports distributed over [clusters] ([xCy]) *)
  | Hierarchical of {
      clusters : int;
      regs_per_bank : Cap.t;
      shared_regs : Cap.t;
      lp : Cap.t;  (** LoadR ports: shared -> local, per bank *)
      sp : Cap.t;  (** StoreR ports: local -> shared, per bank *)
      local_access : access option;
      shared_access : access option;
    }  (** first-level banks per cluster + shared bank ([xCy-Sz]);
          [clusters = 1] is the pure hierarchical organization *)

type t = org

let monolithic ?access regs =
  Monolithic { regs = Cap.of_int regs; access = norm_access access }

let clustered ?lp ?sp ?buses ?access ~clusters ~regs_per_bank () =
  if clusters < 2 then invalid_arg "Rf.clustered: needs >= 2 clusters";
  let dflt = function Some c -> c | None -> Cap.Finite 1 in
  Clustered
    { clusters; regs_per_bank = Cap.of_int regs_per_bank;
      lp = dflt lp; sp = dflt sp;
      buses = (match buses with Some b -> b | None -> Cap.Finite clusters);
      access = norm_access access }

let hierarchical ?(lp = Cap.Finite 1) ?(sp = Cap.Finite 1) ?local_access
    ?shared_access ~clusters ~regs_per_bank ~shared_regs () =
  if clusters < 1 then invalid_arg "Rf.hierarchical: needs >= 1 cluster";
  Hierarchical
    { clusters; regs_per_bank = Cap.of_int regs_per_bank;
      shared_regs = Cap.of_int shared_regs; lp; sp;
      local_access = norm_access local_access;
      shared_access = norm_access shared_access }

let clusters = function
  | Monolithic _ -> 1
  | Clustered { clusters; _ } | Hierarchical { clusters; _ } -> clusters

let is_hierarchical = function
  | Hierarchical _ -> true
  | Monolithic _ | Clustered _ -> false

let is_clustered = function
  | Clustered _ -> true
  | Hierarchical { clusters; _ } -> clusters > 1
  | Monolithic _ -> false

(** Registers in each first-level bank feeding the FUs.  For a monolithic
    RF the single bank feeds the FUs directly. *)
let local_regs = function
  | Monolithic { regs; _ } -> regs
  | Clustered { regs_per_bank; _ } | Hierarchical { regs_per_bank; _ } ->
    regs_per_bank

let shared_regs = function
  | Monolithic _ | Clustered _ -> Cap.Finite 0
  | Hierarchical { shared_regs; _ } -> shared_regs

let local_access = function
  | Monolithic { access; _ } | Clustered { access; _ } -> access
  | Hierarchical { local_access; _ } -> local_access

let shared_access = function
  | Monolithic _ | Clustered _ -> None
  | Hierarchical { shared_access; _ } -> shared_access

(** Total storage capacity over all banks. *)
let total_regs t =
  let add a b =
    match (a, b) with
    | Cap.Inf, _ | _, Cap.Inf -> Cap.Inf
    | Cap.Finite a, Cap.Finite b -> Cap.Finite (a + b)
  in
  let scale k = function
    | Cap.Inf -> Cap.Inf
    | Cap.Finite n -> Cap.Finite (k * n)
  in
  match t with
  | Monolithic { regs; _ } -> regs
  | Clustered { clusters; regs_per_bank; _ } -> scale clusters regs_per_bank
  | Hierarchical { clusters; regs_per_bank; shared_regs; _ } ->
    add (scale clusters regs_per_bank) shared_regs

let lp = function
  | Monolithic _ -> Cap.Finite 0
  | Clustered { lp; _ } | Hierarchical { lp; _ } -> lp

let sp = function
  | Monolithic _ -> Cap.Finite 0
  | Clustered { sp; _ } | Hierarchical { sp; _ } -> sp

let pp_cap_short ppf c = Fmt.string ppf (Cap.to_string c)

(* Suffix encodings of the generalized fields.  Absent fields print
   nothing, so legacy organizations keep their legacy notation (and
   [equal], which compares notations, keeps its legacy meaning). *)
let access_suffix tag = function
  | None -> ""
  | Some a ->
    Fmt.str "@%sr%aw%a" tag pp_cap_short a.pr pp_cap_short a.pw

(** Paper notation — [S128], [4C32], [1C64S64] — extended with the
    access-port axes: [@r<n>w<n>] constrains the first-level banks'
    access ports, [@Sr<n>w<n>] the shared bank's; [inf] stands for an
    unbounded count anywhere. *)
let notation t =
  match t with
  | Monolithic { regs; access } ->
    Fmt.str "S%a%s" pp_cap_short regs (access_suffix "" access)
  | Clustered { clusters; regs_per_bank; access; _ } ->
    Fmt.str "%dC%a%s" clusters pp_cap_short regs_per_bank
      (access_suffix "" access)
  | Hierarchical
      { clusters; regs_per_bank; shared_regs; local_access; shared_access;
        _ } ->
    Fmt.str "%dC%aS%a%s%s" clusters pp_cap_short regs_per_bank
      pp_cap_short shared_regs
      (access_suffix "" local_access)
      (access_suffix "S" shared_access)

let pp ppf t = Fmt.string ppf (notation t)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let fail_parse s = Fmt.failwith "Rf.of_notation: cannot parse %S" s

(* The retired third level ("-L3:<regs>" segments, "@T" groups) is
   refused by name, not as a typo. *)
let fail_third_level s =
  Fmt.failwith
    "Rf.of_notation: %S names a third register-file level (-L3:, @T), \
     which was removed: an organization has local banks and at most one \
     shared bank"
    s

(* Split [s] on '@'; the head is the base, every further chunk one
   access-port group. *)
let split_on_at s =
  match String.split_on_char '@' s with
  | [] -> fail_parse s
  | head :: groups -> (head, groups)

let cap_of_string s whole =
  match Cap.of_string s with
  | c -> c
  | exception Failure _ -> fail_parse whole

(* One "@..." group: "r<cap>w<cap>" (local), "Sr<cap>w<cap>" (shared). *)
let parse_group whole g =
  let tag, rest =
    if String.length g > 0 && g.[0] = 'T' then fail_third_level whole
    else if String.length g > 0 && g.[0] = 'S' then
      ("S", String.sub g 1 (String.length g - 1))
    else ("", g)
  in
  if String.length rest < 2 || rest.[0] <> 'r' then fail_parse whole
  else
    match String.index_opt rest 'w' with
    | None -> fail_parse whole
    | Some wi ->
      let pr = cap_of_string (String.sub rest 1 (wi - 1)) whole in
      let pw =
        cap_of_string (String.sub rest (wi + 1) (String.length rest - wi - 1))
          whole
      in
      (tag, { pr; pw })

(* The base organization: S<n>, <x>C<y> or <x>C<y>S<z>. *)
let parse_base whole base ~local_access ~shared_access =
  let reject_hier_only () = if shared_access <> None then fail_parse whole in
  match String.index_opt base 'C' with
  | None ->
    if String.length base < 2 || base.[0] <> 'S' then fail_parse whole
    else begin
      reject_hier_only ();
      Monolithic
        { regs =
            cap_of_string (String.sub base 1 (String.length base - 1)) whole;
          access = local_access }
    end
  | Some ci -> (
    let x =
      match int_of_string_opt (String.sub base 0 ci) with
      | Some x when x >= 1 -> x
      | Some _ | None -> fail_parse whole
    in
    let rest = String.sub base (ci + 1) (String.length base - ci - 1) in
    match String.index_opt rest 'S' with
    | None ->
      if x < 2 then fail_parse whole;
      reject_hier_only ();
      Clustered
        { clusters = x; regs_per_bank = cap_of_string rest whole;
          lp = Cap.Finite 1; sp = Cap.Finite 1; buses = Cap.Finite x;
          access = local_access }
    | Some si ->
      let y = cap_of_string (String.sub rest 0 si) whole in
      let z =
        cap_of_string (String.sub rest (si + 1) (String.length rest - si - 1))
          whole
      in
      Hierarchical
        { clusters = x; regs_per_bank = y; shared_regs = z;
          lp = Cap.Finite 1; sp = Cap.Finite 1; local_access; shared_access })

(** Parse the (extended) paper notation.  Inter-level ports default to
    lp=sp=1 for multi-bank organizations; every generalized field
    defaults to absent.  Raises [Failure] on malformed input — a typo'd
    design point must not silently schedule a different machine. *)
let of_notation s =
  let head, groups = split_on_at s in
  let local_access = ref None and shared_access = ref None in
  List.iter
    (fun g ->
      let tag, a = parse_group s g in
      let slot = if tag = "S" then shared_access else local_access in
      if !slot <> None then fail_parse s (* duplicate group *)
      else slot := Some a)
    groups;
  (match String.index_opt head '-' with
  | Some i when i + 4 <= String.length head && String.sub head i 4 = "-L3:" ->
    fail_third_level s
  | Some _ | None -> ());
  parse_base s head ~local_access:(norm_access !local_access)
    ~shared_access:(norm_access !shared_access)

let equal a b = notation a = notation b
