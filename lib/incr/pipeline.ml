(** The staged, memoized evaluation pipeline over a frontend program.
    See the interface for the contract. *)

module Runner = Hcrf_eval.Runner
module Memo = Hcrf_eval.Memo

type t = { ctx : Runner.Ctx.t; config : Hcrf_machine.Config.t }

type eval_stats = {
  kernels : int;
  frontend_hits : int;
  frontend_recomputed : int;
  sched : Runner.pipeline_stats;
}

let create ?(ctx = Runner.Ctx.default) config = { ctx; config }

let ctx t = t.ctx

let eval t (kernels : Hcrf_frontend.Ast.t list) =
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
        (* the frontend stage: a hit hands back the stored loop itself,
           and its key with it *)
        let compile () = Hcrf_frontend.Compile.compile kernel in
        let loop, hit =
          match memo with
          | None -> (compile (), false)
          | Some m ->
            Memo.find_or_compile m ~trace (Hcrf_frontend.Ast.digest kernel)
              compile
        in
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
    }
  in
  (perfs, aggregate, stats)

let pp_eval_stats ppf s =
  Fmt.pf ppf "kernels=%d frontend_hits=%d frontend_recomputed=%d %a"
    s.kernels s.frontend_hits s.frontend_recomputed Runner.pp_pipeline_stats
    s.sched
