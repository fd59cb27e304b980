(** Reference rotating register allocation (pre-bitmap implementation).

    {!Hcrf_sched.Regalloc.allocate_bank} as it was before it kept the
    wheel's occupancy in a bitmap: first-fit placement tested each arc
    against the list of arcs already placed.  Kept as the executable
    specification; the QCheck harness in [test_sched.ml] checks that
    both give the same assignment (or both fail) on random lifetimes. *)

open Hcrf_sched

let cdiv a b = (a + b - 1) / b

(* Arc overlap on a circle of circumference [c]. *)
let overlaps c (s1, len1) (s2, len2) =
  let within s len x = ((x - s) mod c + c) mod c < len in
  within s1 len1 s2 || within s2 len2 s1

let allocate_bank ~ii ~(bank : Topology.bank) ~capacity
    (lts : Lifetimes.lifetime list) : Regalloc.assignment option =
  let fail () = None in
  let lts =
    List.filter
      (fun (l : Lifetimes.lifetime) ->
        Topology.equal_bank l.bank bank && Lifetimes.span l > 0)
      lts
  in
  if lts = [] then Some { Regalloc.bank; registers_used = 0; map = [] }
  else begin
    let maxlives = Lifetimes.pressure ~ii ~bank lts in
    let total_span =
      List.fold_left (fun acc l -> acc + Lifetimes.span l) 0 lts
    in
    let max_span =
      List.fold_left (fun acc l -> max acc (Lifetimes.span l)) 1 lts
    in
    let lower =
      max maxlives (max (cdiv max_span ii) (cdiv total_span ii))
    in
    (* longest arcs first keeps fragmentation low *)
    let arcs =
      List.map
        (fun (l : Lifetimes.lifetime) ->
          (l.Lifetimes.def, ((l.start mod ii) + ii) mod ii,
           Lifetimes.span l))
        lts
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    let rec try_wheel r =
      if r > lower + 8 then None
      else begin
        let c = r * ii in
        let placed = ref [] in
        let map = ref [] in
        let place_one (def, phase, span) =
          let rec try_offset o =
            if o >= r then false
            else
              let pos = (phase + (o * ii)) mod c in
              if List.exists (overlaps c (pos, span)) !placed then
                try_offset (o + 1)
              else begin
                placed := (pos, span) :: !placed;
                map := (def, o) :: !map;
                true
              end
          in
          try_offset 0
        in
        if List.for_all place_one arcs then Some (r, List.rev !map)
        else try_wheel (r + 1)
      end
    in
    match try_wheel lower with
    | None -> fail ()
    | Some (r, map) ->
      if Hcrf_machine.Cap.fits r capacity then
        Some { Regalloc.bank; registers_used = r; map }
      else fail ()
  end
