(** LU-patterned Gaussian elimination over DSM: the third SPLASH-style
    kernel.

    Row-block distribution; at step [k] the pivot row is read by every node
    (a one-to-all sharing pattern, unlike Jacobi's neighbour halos) while
    each node updates its own rows, with a barrier per step.  The arithmetic
    is performed on a finite integer ring (values are reduced modulo a fixed
    bound after each update) so the DSM runs and the sequential oracle are
    exactly comparable — the numerical content is irrelevant to the protocol
    study, the access pattern is what matters. *)

open Dsmpm2_net

type config = {
  size : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  op_us : float;
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
