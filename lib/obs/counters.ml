(** The [Counters] sink: deterministic per-suite event histograms.

    Two tables are kept apart on purpose:

    - [counts] holds event counts and event-derived magnitudes (e.g.
      nodes inserted by spilling).  These depend only on *what work was
      executed*, so — because {!Tracer.commit} replays per-work-unit
      buffers in input order — they are identical at any job count.
    - [timings] holds phase wall-clock sums in integer nanoseconds.
      Integer sums also commute, so they too are independent of the
      job count *within one run*, but wall-clock differs from run to
      run; equality checks therefore cover [counts] only.

    The same type serves as an owner's always-on registry ({!note}).
    No internal lock: a tracer sink is only fed from {!Tracer.commit},
    which serializes sink access; a registry is fed and read under its
    owner's lock. *)

type t = {
  counts : (string, int ref) Hashtbl.t;
  timings : (string, int ref) Hashtbl.t;
}

let create () = { counts = Hashtbl.create 32; timings = Hashtbl.create 8 }

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.add tbl key (ref n)

let add t ev =
  let key = Event.key ev in
  bump t.counts key 1;
  match ev with
  | Event.Spill_insert { inserted; _ } ->
    bump t.counts (key ^ ".nodes") inserted
  | Event.Shrink { steps } -> bump t.counts "shrink.steps" steps
  | Event.Exact_search { steps; _ } -> bump t.counts "exact.steps" steps
  | Event.Phase { ns; _ } | Event.Incr { ns; _ } -> bump t.timings key ns
  | Event.II_try _ | Event.Place _ | Event.Eject _ | Event.Comm_insert _
  | Event.Regalloc_fail _ | Event.Budget_escalate _ | Event.Cache _
  | Event.Fuzz _ | Event.Serve _ ->
    ()

let add_all t evs = List.iter (add t) evs

let note t trace ev =
  add t ev;
  Trace.emit trace ev

let count t ev =
  match Hashtbl.find_opt t.counts (Event.key ev) with Some r -> !r | None -> 0

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Deterministic counters, sorted by key — hash-table iteration order
    never reaches the output. *)
let counts t = sorted t.counts

(** Phase wall-clock sums in nanoseconds, sorted by key. *)
let timings t = sorted t.timings

let total_events t =
  (* phase keys count span events; derived ".nodes" / ".steps" keys are
     magnitudes, not events *)
  Hashtbl.fold
    (fun k v acc ->
      if Filename.check_suffix k ".nodes" || Filename.check_suffix k ".steps"
      then acc
      else acc + !v)
    t.counts 0

(** Counts-only equality: the determinism contract (identical at
    jobs=1 and jobs=4, warm or cold — see the module header). *)
let equal_counts a b = counts a = counts b

let pp ppf t =
  match counts t with
  | [] -> Fmt.pf ppf "(no events)"
  | kvs ->
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any " ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v))
      kvs
