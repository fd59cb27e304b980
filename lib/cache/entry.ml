open Hcrf_ir
open Hcrf_sched

type stored_outcome = {
  s_ii : int;
  s_mii : int;
  s_bounds : Mii.bounds;
  s_sc : int;
  s_cycle : int array;
  s_loc : int array;
  s_bank : int array;
  s_graph : Ddg.repr;
  s_load_override : (int * int) list;
  s_seconds : float;
  s_stats : Engine.stats;
}

type t =
  | Scheduled of {
      outcome : stored_outcome;
      stall_cycles : float;
    }
  | Failed of int

let of_outcome (o : Engine.outcome) ~stall_cycles =
  let cycle, loc, bank =
    Schedule.columns o.Engine.schedule ~len:(Ddg.next_id o.Engine.graph)
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
          s_cycle = cycle;
          s_loc = loc;
          s_bank = bank;
          s_graph = Ddg.to_repr o.Engine.graph;
          s_load_override =
            List.filter_map
              (fun v -> Option.map (fun l -> (v, l)) (override v))
              (Ddg.nodes o.Engine.graph);
          s_seconds = o.Engine.seconds;
          s_stats = o.Engine.stats;
        };
      stall_cycles;
    }

(* The arrays are copied out: an outcome's schedule is mutable, and the
   entry may be replayed again. *)
let to_outcome config (s : stored_outcome) : Engine.outcome =
  let lat =
    match s.s_load_override with
    | [] -> None
    | l ->
      let tbl = Hashtbl.of_seq (List.to_seq l) in
      Some (Latency.make ~override:(Hashtbl.find_opt tbl) config)
  in
  {
    Engine.ii = s.s_ii;
    mii = s.s_mii;
    bounds = s.s_bounds;
    sc = s.s_sc;
    schedule =
      Schedule.of_columns ?lat config ~ii:s.s_ii ~cycle:(Array.copy s.s_cycle)
        ~loc:(Array.copy s.s_loc) ~bank:(Array.copy s.s_bank);
    graph = Ddg.of_repr s.s_graph;
    seconds = s.s_seconds;
    stats = s.s_stats;
  }
