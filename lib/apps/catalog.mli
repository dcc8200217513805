(** The workload table: one entry per application.

    Each entry names an application, its default protocol and its typed
    parameters (defaults taken from the application's own [default]
    record), and knows how to run it once and judge the result against the
    application's sequential oracle.  Every caller that runs an
    application by name — [dsm bench], the application subcommands,
    [dsm analyze], [dsm watch] and [dsm top] — goes through this table, so
    an application is dispatched in exactly one place. *)

open Dsmpm2_net

type value = Int of int | Flag of bool

type param = {
  name : string;  (** as in [BENCH_macro.json] case params and CLI flags *)
  doc : string;
  default : value;  (** from the application's [default] record *)
}

type params = (string * value) list
(** Parameter values by name. *)

type outcome = {
  summary : string Lazy.t;  (** the one-line run summary the CLI prints *)
  correct : bool Lazy.t;
      (** the result matches the sequential oracle (computed on demand:
          coloring's oracle costs about as much as its run) *)
  time_ms : float;  (** simulated time of the application's solve *)
  read_faults : int;
  write_faults : int;
  pages : int;  (** pages transferred; 0 where the application does not count *)
  diff_bytes : int;  (** diff bytes shipped; counted by jacobi only *)
}

type entry = {
  name : string;
  doc : string;
  protocol : string;  (** default protocol *)
  params : param list;
      (** A parameter named ["seed"] is the application's data seed,
          normally set through {!resolve}'s [?seed]. *)
  check : nodes:int -> params -> string option;
      (** [Some reason] when the application cannot run this config *)
  run :
    nodes:int ->
    driver:Driver.t ->
    protocol:string ->
    seed:int option ->
    observe:(Dsmpm2_core.Dsm.t -> unit) option ->
    params ->
    outcome;
      (** One run.  [seed] is the engine tie seed ([None]: unperturbed);
          [params] must come from {!resolve}.  Raises [Invalid_argument]
          on a config {!resolve} rejects. *)
}

val all : entry list
(** tsp, jacobi, coloring, lu, matmul, sort. *)

val find : string -> entry option

val resolve : entry -> nodes:int -> ?seed:int -> params -> (params, string) result
(** Completes explicitly given parameters with the entry's defaults.
    [seed] also sets the data seed where the entry declares one.  Errors
    name a parameter the entry does not declare, a non-positive [nodes],
    or the reason {!entry.check} gives. *)
