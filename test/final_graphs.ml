(* The final graphs of [Engine.schedule] on 4C16S16 and 8C16S16, with
   every inserted copy and spill operation.  Node ids are never reused,
   so under eject churn a graph's id counter runs ahead of its node
   count, and a table sized by ids sees its widest inputs on engine-made
   graphs.  The 40-loop suite and the kernels stay below [2·|V| + 64],
   so each final graph comes twice: as built, and with every id moved
   up by 1,000, past that bound.  Each entry is (configuration, name,
   graph). *)

open Hcrf_ir

let shift_edge by (e : Ddg.edge) = { e with src = e.src + by; dst = e.dst + by }

(* [r] with every id (nodes, edges, invariant consumers, id counter)
   moved up by [by], adjacency order kept. *)
let shift_repr by (r : Ddg.repr) =
  let edges = List.map (shift_edge by) in
  { r with
    Ddg.repr_next_id = r.Ddg.repr_next_id + by;
    repr_nodes =
      List.map
        (fun (id, k, s, p) -> (id + by, k, edges s, edges p))
        r.Ddg.repr_nodes;
    repr_invariants =
      List.map
        (fun (inv, cs) -> (inv, List.map (( + ) by) cs))
        r.Ddg.repr_invariants }

let all =
  lazy
    (let loops =
       Hcrf_workload.Suite.generate ~n:40 () @ Hcrf_workload.Suite.kernels ()
     in
     List.concat_map
       (fun name ->
         let config = Hcrf_model.Presets.published name in
         List.concat_map
           (fun (l : Loop.t) ->
             match Hcrf_sched.Engine.schedule config l.Loop.ddg with
             | Ok o ->
               [ (config, Loop.name l, o.graph);
                 ( config, Loop.name l ^ "+1000",
                   Ddg.of_repr (shift_repr 1_000 (Ddg.to_repr o.graph)) ) ]
             | Error _ -> [])
           loops)
       [ "4C16S16"; "8C16S16" ])
