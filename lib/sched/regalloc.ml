(** Rotating register allocation for modulo-scheduled lifetimes.

    In a rotating register file of R registers the register name space
    advances by one every II cycles, so (register, time) pairs form a
    single wheel of R * II positions: instance i of a value born at
    kernel cycle b with offset o occupies wheel coordinates
    [(b mod II) + o * II, + span), independent of i.  Allocation is
    therefore the placement of one arc per lifetime on that wheel, with
    the arc's anchor constrained to its birth phase plus a multiple of
    II (the offset being chosen).  First-fit with the longest arcs first
    needs R close to MaxLives — the engine retries with more spilling if
    the bank capacity is exceeded.

    This is the [Register_Allocation] step of Figure 5: it turns the
    MaxLives feasibility measure into an explicit register assignment
    that the cycle-accurate executor in {!Hcrf_pipesim} replays through
    physical registers. *)

type assignment = {
  bank : Topology.bank;
  registers_used : int;  (** rotating file size R *)
  map : (int * int) list;  (** (defining node, register offset) *)
}

let cdiv a b = (a + b - 1) / b

(** Allocate the lifetimes of one bank.  Returns [None] when [capacity]
    (if finite) is exceeded; a failure is reported on [trace]. *)
let allocate_bank ?(trace = Hcrf_obs.Trace.off) ~ii
    ~(bank : Topology.bank) ~capacity (lts : Lifetimes.lifetime list) =
  let fail () =
    if Hcrf_obs.Trace.enabled trace then
      Hcrf_obs.Trace.emit trace
        (Hcrf_obs.Event.Regalloc_fail
           { bank = Fmt.str "%a" Topology.pp_bank bank });
    None
  in
  let lts =
    List.filter
      (fun (l : Lifetimes.lifetime) ->
        Topology.equal_bank l.bank bank && Lifetimes.span l > 0)
      lts
  in
  if lts = [] then Some { bank; registers_used = 0; map = [] }
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
    (* The wheel's occupancy, one cell per (register, cycle): an arc
       fits where all of its cells are free (two arcs of a circle
       overlap exactly when they share a cell). *)
    let rec try_wheel r =
      if r > lower + 8 then None
      else begin
        let c = r * ii in
        let wheel = Bytes.make c '\000' in
        let rec free cell n =
          n = 0
          || (Bytes.get wheel cell = '\000'
             && free (if cell + 1 = c then 0 else cell + 1) (n - 1))
        in
        let rec occupy cell n =
          if n > 0 then begin
            Bytes.set wheel cell '\001';
            occupy (if cell + 1 = c then 0 else cell + 1) (n - 1)
          end
        in
        let map = ref [] in
        let place_one (def, phase, span) =
          let len = min span c in
          let rec try_offset o =
            if o >= r then false
            else
              let pos = (phase + (o * ii)) mod c in
              if not (free pos len) then try_offset (o + 1)
              else begin
                occupy pos len;
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
        Some { bank; registers_used = r; map }
      else fail ()
  end

(** Registers of [bank] left to its values: its capacity less its
    invariant residents. *)
let capacity config g ~loc_of bank =
  match Topology.bank_capacity config bank with
  | Hcrf_machine.Cap.Inf -> Hcrf_machine.Cap.Inf
  | Hcrf_machine.Cap.Finite cap ->
    Hcrf_machine.Cap.Finite
      (max 0 (cap - Lifetimes.residents config g ~loc_of bank))

(** Allocate every bank of a complete schedule.  Returns the assignment
    per bank, or the first bank that does not fit. *)
let allocate (s : Schedule.t) (g : Hcrf_ir.Ddg.t) =
  let ii = Schedule.ii s in
  let lts = Lifetimes.of_schedule s g in
  let config = s.Schedule.config in
  let loc_of = Schedule.placed_loc s in
  let results =
    List.map
      (fun bank ->
        let capacity = capacity config g ~loc_of bank in
        (bank, allocate_bank ~ii ~bank ~capacity lts))
      (Lifetimes.banks lts)
  in
  let failed =
    List.filter_map
      (fun (b, r) -> match r with None -> Some b | Some _ -> None)
      results
  in
  match failed with
  | [] -> Ok (List.filter_map (fun (_, r) -> r) results)
  | b :: _ -> Error b
