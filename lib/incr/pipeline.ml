(** The staged, memoized evaluation pipeline over a frontend program.
    See the interface for the contract. *)

module Runner = Hcrf_eval.Runner
module Memo = Hcrf_eval.Memo
module Ev = Hcrf_obs.Event

type t = { ctx : Runner.Ctx.t; config : Hcrf_machine.Config.t }

type eval_stats = {
  kernels : int;
  frontend_hits : int;
  frontend_recomputed : int;
  sched : Runner.pipeline_stats;
  wall_s : float;
}

let create ?(ctx = Runner.Ctx.default) config = { ctx; config }

let ctx t = t.ctx

(* The frontend stage of one kernel: compile, memoized under the
   kernel's content digest.  Loops are snapshotted as reprs (a live
   [Ddg.t] may carry a watcher closure); the round trip preserves ids,
   so replayed loops are behaviourally identical to recompiled ones. *)
let frontend_stage ~trace memo kernel =
  match memo with
  | None -> (Hcrf_frontend.Compile.compile kernel, false)
  | Some m ->
    Memo.memoize m ~trace ~stage:Ev.Frontend
      (Hcrf_frontend.Ast.digest kernel)
      ~get:(function
        | Memo.Loop_v r -> Some (Hcrf_ir.Loop.of_repr r)
        | _ -> None)
      ~put:(fun loop -> Memo.Loop_v (Hcrf_ir.Loop.to_repr loop))
      (fun () -> snd (Hcrf_frontend.Compile.compile_keyed kernel))

let eval t (kernels : Hcrf_frontend.Ast.t list) =
  let t0 = Unix.gettimeofday () in
  let memo = t.ctx.Runner.Ctx.memo in
  let hits = ref 0 and recomputed = ref 0 in
  (* serial, input order: compilation is cheap next to scheduling, and
     a serial pass keeps stage counters jobs-independent *)
  let loops =
    List.map
      (fun kernel ->
        let trace =
          Hcrf_obs.Tracer.start t.ctx.Runner.Ctx.tracer
            ~label:kernel.Hcrf_frontend.Ast.name
        in
        let loop, hit = frontend_stage ~trace memo kernel in
        incr (if hit then hits else recomputed);
        Hcrf_obs.Tracer.commit t.ctx.Runner.Ctx.tracer trace;
        loop)
      kernels
  in
  let perfs, sched = Runner.run_pipeline ~ctx:t.ctx t.config loops in
  let aggregate =
    Hcrf_eval.Metrics.aggregate t.config (List.filter_map Fun.id perfs)
  in
  let stats =
    {
      kernels = List.length kernels;
      frontend_hits = !hits;
      frontend_recomputed = !recomputed;
      sched;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  (perfs, aggregate, stats)

let pp_eval_stats ppf s =
  Fmt.pf ppf "kernels=%d frontend_hits=%d frontend_recomputed=%d %a"
    s.kernels s.frontend_hits s.frontend_recomputed Runner.pp_pipeline_stats
    s.sched
