open Hcrf_ir
open Hcrf_sched

type stored_outcome = {
  s_ii : int;
  s_mii : int;
  s_bounds : Mii.bounds;
  s_sc : int;
  s_assigns : (int * int * Topology.loc) list;
  s_graph : Ddg.repr;
  s_invariant_residents : (Topology.bank * int) list;
  s_load_override : (int * int) list;
  s_seconds : float;
  s_stats : Engine.stats;
}

type t =
  | Scheduled of {
      outcome : stored_outcome;
      stall_cycles : float;
      retries : int;
      input_digest : string;
    }
  | Failed of int

(* Canonical, *id-sensitive* digest of an input graph.  The cache key's
   WL fingerprint deliberately equates isomorphic graphs, but a stored
   schedule's assignments are tied to concrete node ids: replaying them
   for a renumbered twin would bind values and memory streams to the
   wrong nodes.  Entries therefore also record this digest of the graph
   they were computed from, and [Cache.find ~validate] degrades a hit
   with a different digest to a miss.  Adjacency-list and invariant
   *order* are canonicalized away — they cannot change what a replayed
   schedule computes. *)
let ddg_digest (g : Ddg.t) =
  let b = Buffer.create 512 in
  List.iter
    (fun v ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ':';
      Buffer.add_string b (Op.kind_name (Ddg.kind g v));
      Buffer.add_char b ';')
    (Ddg.nodes g);
  List.iter
    (fun (src, dst, dep, dist) ->
      Buffer.add_string b
        (Printf.sprintf "%d>%d:%s:%d;" src dst dep dist))
    (List.sort compare
       (List.map
          (fun (e : Ddg.edge) -> (e.src, e.dst, Dep.name e.dep, e.distance))
          (Ddg.edges g)));
  List.iter
    (fun (iv, consumers) ->
      Buffer.add_string b
        (Printf.sprintf "i%d:%s;" iv
           (String.concat "," (List.map string_of_int consumers))))
    (List.sort compare
       (List.map
          (fun (i : Ddg.invariant) ->
            (i.inv_id, List.sort compare i.inv_consumers))
          (Ddg.invariants g)));
  Digest.string (Buffer.contents b)

(* Every bank of the configuration; the shared bank is included
   unconditionally (residency is 0 where it does not exist). *)
let banks_of (config : Hcrf_machine.Config.t) =
  List.init (Hcrf_machine.Config.clusters config) (fun i -> Topology.Local i)
  @ [ Topology.Shared ]

let of_outcome config (o : Engine.outcome) ~input_digest ~stall_cycles
    ~retries =
  let assigns =
    List.filter_map
      (fun v ->
        match Schedule.entry o.Engine.schedule v with
        | Some e -> Some (v, e.Schedule.cycle, e.Schedule.loc)
        | None -> None)
      (Ddg.nodes o.Engine.graph)
    (* (cycle, node) order: a [Move]'s producer is always issued at
       least one latency cycle earlier (distance-0 flow), so replaying
       in this order lets [Schedule.place] resolve the move's source
       bank exactly as the engine did *)
    |> List.sort (fun (v, c, _) (v', c', _) -> compare (c, v) (c', v'))
  in
  let override = o.Engine.schedule.Schedule.lat.Latency.override in
  Scheduled
    {
      outcome =
        {
          s_ii = o.Engine.ii;
          s_mii = o.Engine.mii;
          s_bounds = o.Engine.bounds;
          s_sc = o.Engine.sc;
          s_assigns = assigns;
          s_graph = Ddg.to_repr o.Engine.graph;
          s_invariant_residents =
            List.map
              (fun b -> (b, o.Engine.invariant_residents b))
              (banks_of config);
          s_load_override =
            List.filter_map
              (fun v -> Option.map (fun l -> (v, l)) (override v))
              (Ddg.nodes o.Engine.graph);
          s_seconds = o.Engine.seconds;
          s_stats = o.Engine.stats;
        };
      stall_cycles;
      retries;
      input_digest;
    }

let to_outcome config (s : stored_outcome) : Engine.outcome =
  let graph = Ddg.of_repr s.s_graph in
  let lat =
    match s.s_load_override with
    | [] -> None
    | l ->
      let tbl = Hashtbl.of_seq (List.to_seq l) in
      Some (Latency.make ~override:(Hashtbl.find_opt tbl) config)
  in
  let schedule = Schedule.create ?lat config ~ii:s.s_ii in
  List.iter
    (fun (v, cycle, loc) -> Schedule.place schedule graph v ~cycle ~loc)
    s.s_assigns;
  let residents = s.s_invariant_residents in
  {
    Engine.ii = s.s_ii;
    mii = s.s_mii;
    bounds = s.s_bounds;
    sc = s.s_sc;
    schedule;
    graph;
    invariant_residents =
      (fun b ->
        match
          List.find_opt (fun (b', _) -> Topology.equal_bank b b') residents
        with
        | Some (_, n) -> n
        | None -> 0);
    seconds = s.s_seconds;
    stats = s.s_stats;
  }
