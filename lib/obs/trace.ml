(** The per-work-unit recording handle that instrumented code receives.

    [Off] is the compiled-away fast path: every emission site guards
    with {!enabled} (one branch, no allocation) so a disabled trace
    costs nothing measurable.  [On] buffers events in reverse order in
    one mutable cell owned by exactly one worker, so recording needs no
    synchronization; {!Tracer.commit} replays the buffer into the
    suite-level sinks in input order. *)

type buf = { label : string; mutable rev : Event.t list }

type t = Off | On of buf

let off = Off

let create ~label = On { label; rev = [] }

let enabled = function Off -> false | On _ -> true

let emit t ev =
  match t with
  | Off -> ()
  | On b -> b.rev <- ev :: b.rev

let label = function Off -> "" | On b -> b.label

let events = function Off -> [] | On b -> List.rev b.rev

(* Span timing uses the same wall clock as the engine's [seconds]
   field; durations are kept in integer nanoseconds so sink merges stay
   exact (integer sums commute, float sums do not). *)
let span t phase f =
  match t with
  | Off -> f ()
  | On _ ->
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
        emit t (Event.Phase { phase; ns }))
      f
