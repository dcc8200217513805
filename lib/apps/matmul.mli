(** Blocked matrix multiplication over DSM.

    C = A x B with rows of A and C block-distributed across the nodes and B
    read-shared by everybody — a replication-friendly workload on which the
    page-based protocols behave almost identically (B's pages are fetched
    once each and never invalidated), while [migrate_thread] collapses:
    every worker chases B's pages to their owners.  Second member of the
    SPLASH-style extension suite. *)

open Dsmpm2_net

type config = {
  size : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  inner_us : float;
  seed : int;
  tie_seed : int option;
      (** seeded engine tie-breaking ({!Dsmpm2_core.Dsm.create}): each seed
          explores a distinct, replayable legal interleaving *)
  observe : (Dsmpm2_core.Dsm.t -> unit) option;
      (** called with the runtime before any thread starts — enable
          monitoring here and keep the handle for post-run export *)
}

val default : config

type result = {
  time_ms : float;
  checksum : int;
  read_faults : int;
  write_faults : int;
  pages_transferred : int;
  messages : int;
}

val run : config -> result
(** @raise Invalid_argument when [nodes > size], which would leave nodes
    without rows. *)

val checksum_sequential : size:int -> seed:int -> int
