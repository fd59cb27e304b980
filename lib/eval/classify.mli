(** Loop-bound classification (Table 1).

    A loop is compute (F.U.), memory-port, recurrence or communication
    bound according to which lower bound limits its initiation interval,
    taken on the *final* graph (including inserted communication and
    spill operations) — which is how moving from a monolithic to a
    clustered RF converts compute-bound loops into communication-bound
    ones. *)

type bound = Fu | Mem | Rec | Com

val all : bound list
val name : bound -> string

(** The largest bound wins; ties resolve communication > recurrence >
    memory > compute when non-trivial; a trivially-bounded loop counts
    as memory bound if it has memory operations, compute bound
    otherwise. *)
val of_bounds : ?has_memory:bool -> Hcrf_sched.Mii.bounds -> bound
