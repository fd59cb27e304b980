(* hcrf_serve: long-lived scheduling daemon.

     hcrf_serve --addr /tmp/hcrf.sock --cache /var/cache/hcrf --jobs 8
     hcrf_serve --addr 127.0.0.1:7433 --lru 1024

   Clients (hcrf_explore serve-bench, Hcrf_serve.Client) send
   serialized loops over a length-prefixed binary protocol; answers
   come from an in-memory LRU, then the sharded on-disk schedule cache,
   then the scheduling engine on a persistent domain pool, with
   duplicate in-flight requests coalesced onto one computation.
   SIGTERM/SIGINT drain gracefully; a final stats line is printed on
   exit.  HCRF_SERVE_ADDR, HCRF_SERVE_LRU, HCRF_CACHE, HCRF_JOBS and
   HCRF_TRACE supply defaults.  Answers persist across restarts through
   the cache directory only. *)

open Cmdliner
open Hcrf_server

let addr_arg =
  let doc =
    "Listen address: a unix-domain socket path, or host:port for TCP.  \
     Defaults to HCRF_SERVE_ADDR."
  in
  Arg.(value & opt (some string) None & info [ "a"; "addr" ] ~doc ~docv:"ADDR")

let cache_arg =
  let doc =
    "Back the schedule cache with $(docv) (overrides HCRF_CACHE); \
     without either, entries live in memory only."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~doc ~docv:"DIR")

let lru_arg =
  let doc =
    "Capacity of the in-memory LRU answer tier.  Defaults to \
     HCRF_SERVE_LRU."
  in
  Arg.(value & opt (some int) None & info [ "lru" ] ~doc ~docv:"N")

let jobs_arg =
  let doc =
    "Worker domains computing cache misses.  Defaults to HCRF_JOBS or \
     this machine's recommended domain count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")

let max_frame_arg =
  let doc = "Reject request frames larger than $(docv) bytes." in
  Arg.(
    value
    & opt int Wire.default_max_frame
    & info [ "max-frame" ] ~doc ~docv:"BYTES")

let run addr cache_dir lru jobs max_frame =
  Hcrf_obs.Logging.setup ();
  Hcrf_eval.Env.warn_unknown ();
  match
    match addr with
    | Some a -> Some a
    | None -> Hcrf_eval.Env.serve_addr ()
  with
  | None ->
    Fmt.epr "hcrf_serve: no address (pass --addr or set HCRF_SERVE_ADDR)@.";
    exit 2
  | Some addr_s -> (
    let addr = Wire.addr_of_string addr_s in
    let dir =
      match cache_dir with
      | Some _ as d -> d
      | None -> Option.bind (Hcrf_eval.Env.cache ()) Hcrf_cache.Cache.dir
    in
    let lru_capacity =
      match lru with Some n -> max 1 n | None -> Hcrf_eval.Env.serve_lru ()
    in
    let jobs =
      match jobs with Some n -> max 1 n | None -> Hcrf_eval.Env.jobs ()
    in
    let tracer = Hcrf_eval.Env.tracer () in
    let tiers = Tiers.create ?dir ~lru_capacity ~jobs ~tracer () in
    match Daemon.create ~max_frame ~addr tiers with
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "hcrf_serve: cannot listen on %a: %s@." Wire.pp_addr addr
        (Unix.error_message e);
      exit 1
    | daemon ->
      Daemon.install_signal_handlers daemon;
      Fmt.pr "hcrf_serve: listening on %a (lru=%d jobs=%d cache=%s)@."
        Wire.pp_addr addr lru_capacity jobs
        (Option.value ~default:"memory" dir);
      (* the smoke script waits for the line above before connecting *)
      Format.print_flush ();
      Daemon.run daemon;
      Fmt.pr "hcrf_serve: drained; %a@." Wire.pp_serve_stats
        (Tiers.stats tiers);
      (match Hcrf_obs.Tracer.counters tracer with
      | None -> ()
      | Some c -> Fmt.pr "trace: %a@." Hcrf_obs.Counters.pp c);
      Hcrf_obs.Tracer.close tracer)

let () =
  let info =
    Cmd.info "hcrf_serve" ~version:"1.0"
      ~doc:"Scheduling daemon with a sharded, tiered schedule cache"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ addr_arg $ cache_arg $ lru_arg $ jobs_arg
            $ max_frame_arg)))
