(** VLIW code emission — the [Generate_code (II, S)] step closing
    Figure 5.

    Renders a scheduled loop as the kernel the core would execute: one
    line per modulo slot listing every operation issued there, with its
    cluster/port placement and its rotating-register operands
    ([L0:r3] = offset 3 of cluster 0's bank, [S:r1] = the shared bank;
    [~] marks a value consumed straight off the bypass network).  The
    prologue and epilogue are the usual SC-1 ramp-up/drain of the same
    kernel with predicated-off stages, so only their shape is
    reported. *)

open Hcrf_ir
open Hcrf_sched

type t = {
  config : Hcrf_machine.Config.t;
  ii : int;
  sc : int;
  kernel : string;  (** rendered kernel table *)
}

(* Register name of a value, from the allocation offsets. *)
let reg_name offsets def =
  match Hashtbl.find_opt offsets def with
  | Some (bank, off) -> Fmt.str "%a:r%d" Topology.pp_bank bank off
  | None -> "~" (* zero-length lifetime: bypass *)

let operand_names g offsets v =
  Ddg.operands g v
  |> List.filter (fun (e : Ddg.edge) ->
         Op.defines_value (Ddg.kind g e.src))
  |> List.map (fun (e : Ddg.edge) ->
         let r = reg_name offsets e.src in
         if e.distance = 0 then r else Fmt.str "%s@-%d" r e.distance)

(** Render the kernel of a complete schedule; [Error bank] when register
    allocation fails. *)
let emit (config : Hcrf_machine.Config.t) (s : Schedule.t) (g : Ddg.t) :
    (t, Topology.bank) result =
  match Regalloc.allocate s g with
  | Error b -> Error b
  | Ok assignments ->
    let offsets = Hashtbl.create 64 in
    List.iter
      (fun (a : Regalloc.assignment) ->
        List.iter
          (fun (def, off) ->
            Hashtbl.replace offsets def (a.Regalloc.bank, off))
          a.Regalloc.map)
      assignments;
    let ii = Schedule.ii s in
    let sc = Schedule.stage_count s in
    let by_slot = Array.make ii [] in
    Ddg.iter_nodes g (fun n ->
        let e = Schedule.entry_exn s n.id in
        let slot = e.Schedule.cycle mod ii in
        by_slot.(slot) <- (e.Schedule.cycle, n.id) :: by_slot.(slot));
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    Fmt.pf ppf "@[<v>;; %s  II=%d  SC=%d (prologue/epilogue: %d stages)@,"
      config.Hcrf_machine.Config.name ii sc (sc - 1);
    List.iter
      (fun (a : Regalloc.assignment) ->
        if a.Regalloc.registers_used > 0 then
          Fmt.pf ppf ";; bank %a: %d rotating registers@,"
            Topology.pp_bank a.Regalloc.bank a.Regalloc.registers_used)
      assignments;
    for slot = 0 to ii - 1 do
      Fmt.pf ppf "%2d:" slot;
      let ops = List.sort compare by_slot.(slot) in
      if ops = [] then Fmt.pf ppf "  nop"
      else
        List.iter
          (fun (cycle, v) ->
            let e = Schedule.entry_exn s v in
            let kind = Ddg.kind g v in
            let dest =
              if Op.defines_value kind then
                Fmt.str " -> %s" (reg_name offsets v)
              else ""
            in
            Fmt.pf ppf "  [%a/s%d] %s %s%s" Topology.pp_loc
              e.Schedule.loc (cycle / ii) (Op.kind_name kind)
              (String.concat "," (operand_names g offsets v))
              dest)
          ops;
      Fmt.pf ppf "@,"
    done;
    Fmt.pf ppf "@]";
    Format.pp_print_flush ppf ();
    Ok { config; ii; sc; kernel = Buffer.contents buf }

let of_outcome (config : Hcrf_machine.Config.t) (o : Hcrf_sched.Engine.outcome) =
  emit config o.Hcrf_sched.Engine.schedule o.Hcrf_sched.Engine.graph

let pp ppf t = Fmt.string ppf t.kernel
