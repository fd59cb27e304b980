(** Value lifetimes and per-bank register requirements (MaxLives).

    A value occupies a register from its write-back (definition issue +
    latency; while in flight it travels the pipeline/bypass network, as
    in Rau's register-requirement model for modulo schedules) until its
    last read; a consumer at cycle c through an edge of distance d reads
    at flat cycle c + II * d.  The register requirement of a bank at
    modulo slot s is the number of simultaneously live values there,
    counting the copies belonging to overlapped iterations — the
    standard MaxLives measure for modulo schedules.

    Loop invariants occupy one register for the whole execution of the
    loop in every bank from which they are read (§5.1); they are accounted
    as a constant addition per bank. *)

open Hcrf_ir

type lifetime = {
  def : int;               (** defining node *)
  bank : Topology.bank;
  start : int;             (** write-back cycle of the definition *)
  stop : int;              (** last read cycle; live over [start, stop) *)
}

let span l = l.stop - l.start

(** Lifetimes of all values whose definition is scheduled.  Unscheduled
    consumers do not extend a lifetime (the requirement grows
    monotonically as the schedule fills in). *)
let of_schedule (s : Schedule.t) (g : Ddg.t) : lifetime list =
  let ii = Schedule.ii s in
  List.filter_map
    (fun v ->
      if not (Op.defines_value (Ddg.kind g v)) then None
      else
        match Schedule.entry s v with
        | None -> None
        | Some e ->
          let bank =
            match Topology.def_bank s.Schedule.config (Ddg.kind g v) e.loc with
            | Some b -> b
            | None -> assert false
          in
          let birth =
            e.cycle
            + Latency.of_def s.Schedule.lat ~id:v ~kind:(Ddg.kind g v)
          in
          let stop =
            List.fold_left
              (fun acc (edge : Ddg.edge) ->
                match Schedule.entry s edge.dst with
                | None -> acc
                | Some c -> max acc (c.cycle + (ii * edge.distance)))
              birth (Ddg.consumers g v)
          in
          Some { def = v; bank; start = birth; stop })
    (Ddg.nodes g)

(** Register requirement of [bank]: MaxLives of the lifetimes living
    there, plus [invariant_residents] whole-loop registers. *)
let pressure ~ii ~(bank : Topology.bank) ?(invariant_residents = 0)
    (lts : lifetime list) =
  let req = Array.make ii 0 in
  List.iter
    (fun l ->
      if Topology.equal_bank l.bank bank then begin
        let sp = span l in
        if sp > 0 then begin
          let full = sp / ii and rem = sp mod ii in
          if full > 0 then
            Array.iteri (fun i c -> req.(i) <- c + full) req;
          let s0 = ((l.start mod ii) + ii) mod ii in
          for k = 0 to rem - 1 do
            let slot = (s0 + k) mod ii in
            req.(slot) <- req.(slot) + 1
          done
        end
      end)
    lts;
  Array.fold_left max 0 req + invariant_residents

(** All banks that appear in some lifetime, for iteration. *)
let banks lts =
  List.sort_uniq compare (List.map (fun l -> l.bank) lts)
