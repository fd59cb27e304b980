(** Suite-level trace collector: a set of sinks plus the commit lock.

    Work units record into private {!Trace.t} buffers; callers hand
    finished buffers to {!commit}, which replays them into every sink
    under one mutex.  The runner commits buffers in *input order* (not
    completion order), which is what makes [Counters] totals and
    [Jsonl] files identical across job counts.

    The null tracer has no sinks; {!start} then returns {!Trace.off},
    so instrumented code skips event construction entirely. *)

type sink = Counters of Counters.t | Jsonl of Jsonl.t

type t = { sinks : sink list; lock : Mutex.t }

let make sinks = { sinks; lock = Mutex.create () }

let null = make []

let is_null t = match t.sinks with [] -> true | _ :: _ -> false

let sinks t = t.sinks

let counters t =
  List.find_map (function Counters c -> Some c | Jsonl _ -> None) t.sinks

let jsonl_path t =
  List.find_map
    (function Jsonl j -> Some (Jsonl.path j) | Counters _ -> None)
    t.sinks

let start t ~label = if is_null t then Trace.off else Trace.create ~label

let commit t trace =
  if is_null t || not (Trace.enabled trace) then ()
  else
    Mutex.protect t.lock (fun () ->
        let label = Trace.label trace in
        let evs = Trace.events trace in
        List.iter
          (function
            | Counters c -> Counters.add_all c evs
            | Jsonl j -> List.iter (Jsonl.write j ~label) evs)
          t.sinks)

let close t =
  List.iter (function Jsonl j -> Jsonl.close j | Counters _ -> ()) t.sinks
