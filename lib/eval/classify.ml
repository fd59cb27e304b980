(** Loop-bound classification (Table 1).

    A loop is compute (F.U.), memory-port, recurrence or communication
    bound according to which lower bound limits its initiation interval.
    The bounds are taken on the *final* graph (including the inserted
    communication and spill operations), which is how moving from a
    monolithic to a clustered RF converts compute-bound loops into
    communication-bound ones. *)

open Hcrf_sched

type bound = Fu | Mem | Rec | Com

let all = [ Fu; Mem; Rec; Com ]

let name = function
  | Fu -> "F.U."
  | Mem -> "MemPort"
  | Rec -> "Rec."
  | Com -> "Com."

(** Classify from the MII component bounds.  The largest bound wins;
    ties are resolved communication > recurrence > memory > compute only
    when the bound is non-trivial (> 1); a trivially-bounded loop (every
    component 1) counts as memory bound if it has memory operations,
    compute bound otherwise. *)
let of_bounds ?(has_memory = true) (b : Mii.bounds) : bound =
  let m = max (max b.fu b.mem) (max b.comm b.rec_) in
  if m <= 1 then if has_memory then Mem else Fu
  else if b.comm = m then Com
  else if b.rec_ = m then Rec
  else if b.mem = m then Mem
  else Fu
