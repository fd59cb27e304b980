(** Domain-based parallel evaluation of independent per-loop work.

    A fixed pool of [jobs] domains pulls item indices from a
    mutex-protected counter and writes results into a slot array, so the
    caller always sees results in input order — aggregates computed from
    them are bit-identical to the serial path regardless of which domain
    ran which loop (every loop carries its own split RNG, so the work
    items share no state).

    [jobs <= 1] (or a single item) takes the plain [List.map] path: no
    domain is spawned and the behaviour is exactly the serial one.

    A worker exception does not hang the pool: the failing item records
    the exception, the remaining undistributed items are abandoned, every
    domain is joined, and the lowest-index exception is re-raised with
    its original backtrace. *)

let default_jobs () = Domain.recommended_domain_count ()

type 'b slot =
  | Empty
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let map ?(jobs = 1) f items =
  let n = List.length items in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let input = Array.of_list items in
    let slots = Array.make n Empty in
    let next = ref 0 in
    let m = Mutex.create () in
    let take () =
      Mutex.lock m;
      let i = !next in
      if i < n then incr next;
      Mutex.unlock m;
      if i < n then Some i else None
    in
    let abandon () =
      Mutex.lock m;
      next := n;
      Mutex.unlock m
    in
    let rec worker () =
      match take () with
      | None -> ()
      | Some i ->
        (match f input.(i) with
        | r -> slots.(i) <- Done r
        | exception e ->
          slots.(i) <- Failed (e, Printexc.get_raw_backtrace ());
          abandon ());
        worker ()
    in
    let spawned =
      List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    Array.iter
      (function
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty | Done _ -> ())
      slots;
    Array.to_list
      (Array.map
         (function
           | Done r -> r
           | Empty | Failed _ -> assert false (* no Failed: checked above *))
         slots)
  end
