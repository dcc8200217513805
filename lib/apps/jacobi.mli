(** Jacobi relaxation over DSM: the regular, barrier-synchronised workload
    class the paper's conclusion targets with its planned SPLASH-2 study.

    A square grid (fixed-point values) is block-distributed by rows across
    the nodes; each node's worker relaxes its rows every iteration, reading
    one halo row from each neighbouring block, and all workers meet at a
    barrier between iterations.  The sharing pattern — producer/consumer on
    block-boundary pages with barrier synchronisation — discriminates
    protocols very differently from the lock-centric TSP: home-based diffs
    ([hbrc_mw]) ship only the few modified words of a boundary page, while
    the MRSW protocols bounce whole pages. *)

open Dsmpm2_net

type config = {
  size : int;  (** grid side; the grid is size x size *)
  iterations : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;
  point_us : float;
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
  checksum : int;  (** sum of the final grid, fixed-point *)
  read_faults : int;
  write_faults : int;
  pages_transferred : int;
  diff_bytes : int;
  messages : int;
}

val run : config -> result
(** @raise Invalid_argument when [nodes > size], which would leave nodes
    without rows. *)

val checksum_sequential : size:int -> iterations:int -> int
(** The same relaxation computed sequentially: the correctness oracle. *)
