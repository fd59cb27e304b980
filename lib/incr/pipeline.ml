(** The staged, memoized evaluation pipeline over a frontend program.
    See the interface for the contract. *)

module Runner = Hcrf_eval.Runner
module Memo = Hcrf_eval.Memo
module Ast = Hcrf_frontend.Ast

type t = {
  ctx : Runner.Ctx.t;
  config : Hcrf_machine.Config.t;
  last : (Ast.t array * Hcrf_eval.Metrics.loop_perf option array) Atomic.t;
      (* the last evaluation under a memo, kernels beside their perfs:
         read and replaced whole, never mutated *)
}

type eval_stats = {
  kernels : int;
  frontend_hits : int;
  frontend_recomputed : int;
  sched : Runner.pipeline_stats;
}

let create ?(ctx = Runner.Ctx.default) config =
  { ctx; config; last = Atomic.make ([||], [||]) }

let ctx t = t.ctx

let eval t kernels =
  let { Runner.Ctx.memo; tracer; _ } = t.ctx in
  let kernels = Array.of_list kernels in
  let n = Array.length kernels in
  let last_kernels, last_perfs = Atomic.get t.last in
  let traces =
    Array.map (fun k -> Hcrf_obs.Tracer.start tracer ~label:k.Ast.name) kernels
  in
  let perfs = Array.make n None in
  let recomputed = ref 0 and fresh = ref [] and hit_traces = ref [] in
  (* serial, input order: compilation is cheap next to scheduling, and
     a serial pass keeps stage counters jobs-independent *)
  Array.iteri
    (fun i kernel ->
      (* config, scenario and options are fixed, so a kernel's perf
         depends on the kernel alone: one physically equal to the last
         evaluation's kernel at its position keeps that perf *)
      if Option.is_some memo
         && i < Array.length last_kernels
         && last_kernels.(i) == kernel
      then begin
        perfs.(i) <- last_perfs.(i);
        hit_traces := traces.(i) :: !hit_traces
      end
      else begin
        (* the frontend stage: a hit hands back the stored loop itself,
           and its key with it *)
        let compile () = Hcrf_frontend.Compile.compile kernel in
        let loop, hit =
          match memo with
          | None -> (compile (), false)
          | Some m ->
            Memo.find_or_compile m ~trace:traces.(i) (Ast.digest kernel)
              compile
        in
        if not hit then incr recomputed;
        fresh := (i, loop) :: !fresh
      end)
    kernels;
  Option.iter (fun m -> Memo.note_hits m !hit_traces) memo;
  Array.iter (Hcrf_obs.Tracer.commit tracer) traces;
  let fresh = List.rev !fresh in
  let fresh_perfs, sched =
    Runner.run_pipeline ~ctx:t.ctx t.config (List.map snd fresh)
  in
  List.iter2 (fun (i, _) p -> perfs.(i) <- p) fresh fresh_perfs;
  if Option.is_some memo then Atomic.set t.last (kernels, perfs);
  let perfs = Array.to_list perfs in
  let aggregate =
    Hcrf_eval.Metrics.aggregate t.config (List.filter_map Fun.id perfs)
  in
  (* a reused kernel counts as the memo and store hits it stands for *)
  let reuses = n - List.length fresh in
  let stats =
    {
      kernels = n;
      frontend_hits = n - !recomputed;
      frontend_recomputed = !recomputed;
      sched =
        { sched with
          Runner.total = n; store_hits = sched.Runner.store_hits + reuses };
    }
  in
  (perfs, aggregate, stats)

let pp_eval_stats ppf s =
  Fmt.pf ppf "kernels=%d frontend_hits=%d frontend_recomputed=%d %a"
    s.kernels s.frontend_hits s.frontend_recomputed Runner.pp_pipeline_stats
    s.sched
