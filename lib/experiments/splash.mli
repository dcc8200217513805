(** The SPLASH-2-style extension study the paper's conclusion announces as
    current work: regular kernels (Jacobi relaxation, blocked matrix
    multiplication, LU elimination and odd-even sort) compared across the
    four general-purpose protocols. *)

type cell = {
  kernel : string;
  protocol : string;
  outcome : Dsmpm2_apps.Catalog.outcome;
}

val run : unit -> cell list
val print : Format.formatter -> cell list -> unit

val to_json : cell list -> Dsmpm2_sim.Json.t
