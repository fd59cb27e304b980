(** Ready-made processor configurations.

    Two construction paths exist for the evaluated configurations:
    {!of_published} uses the paper's published Table 5 hardware
    constants (clock, latencies) so the performance experiments run on
    exactly the published machine; {!of_model} derives everything from
    the analytic {!Cacti} + {!Timing} surrogate, which is what a user
    exploring a new design point would do. *)

(** The RF organization of a published row, with its port counts. *)
val rf_of : notation:string -> lp:int -> sp:int -> Hcrf_machine.Rf.t

val latencies_of_row : Hw_table.row -> Hcrf_machine.Latencies.t

(** Configuration running at the published Table 5 hardware point. *)
val of_published :
  ?n_fus:int -> ?n_mem_ports:int -> Hw_table.row -> Hcrf_machine.Config.t

(** [published "4C32"] — raises [Invalid_argument] on an unknown
    notation. *)
val published : string -> Hcrf_machine.Config.t

(** All 15 configurations of the paper's Table 5/6 evaluation. *)
val table5_configs : unit -> Hcrf_machine.Config.t list

(** Derive a configuration from the analytic technology model. *)
val of_model :
  ?n_fus:int -> ?n_mem_ports:int -> Hcrf_machine.Rf.t ->
  Hcrf_machine.Config.t

(** The configuration a notation in the full extended grammar names
    (["4C32"], ["4C16S16@r2w1"]): the published Table-5 hardware
    ({!of_published}) when the notation names a published point, the
    analytic model ({!of_model}) otherwise.  Raises [Failure] or
    [Invalid_argument] on a malformed notation. *)
val of_notation :
  ?n_fus:int -> ?n_mem_ports:int -> string -> Hcrf_machine.Config.t

(** Static-evaluation configurations (Table 3): unbounded registers,
    either unbounded or §4-bounded bandwidth between banks; baseline
    latencies. *)
val static_config :
  ?n_fus:int -> ?n_mem_ports:int -> bounded_bandwidth:bool -> string ->
  Hcrf_machine.Config.t

(** Table 3's configuration list, in paper order. *)
val table3_notations : string list

(** Figure 1's resource sweep: monolithic unbounded RF with x FUs and y
    memory ports for (x, y) in 4+2 .. 12+6. *)
val figure1_configs : unit -> Hcrf_machine.Config.t list
