(** Travelling Salesman by branch-and-bound over DSM (paper Section 4,
    Figure 4).

    Solves TSP for [cities] randomly placed cities (random symmetric
    inter-city distances, seeded), with one application thread per node as
    in the paper.  The only intensively shared variable is the current
    shortest tour length, kept in one DSM word whose page lives on node 0;
    every access to it is lock protected.  Threads branch on the second city
    of the tour (round-robin over threads), prune with a
    minimum-outgoing-edge lower bound, refresh their cached bound under the
    lock every [refresh_period] expansions and publish improvements under
    the same lock.

    Under page-based protocols the bound page gets replicated to readers and
    re-fetched after updates; under [migrate_thread] every bound access
    migrates the worker to node 0, which ends up hosting — and serialising —
    every thread: the load-imbalance effect the paper's Figure 4 shows. *)

open Dsmpm2_net

type config = {
  cities : int;  (** 14 in the paper *)
  seed : int;
  nodes : int;
  driver : Driver.t;
  protocol : string;  (** a built-in protocol name *)
  refresh_period : int;  (** expansions between lock-protected bound reads *)
  expand_us : float;  (** simulated CPU cost per tree-node expansion *)
  balance : bool;
      (** run PM2's dynamic load balancer alongside the workers (paper
          section 2.1's motivating use of preemptive migration); workers
          are spawned migratable either way *)
  tie_seed : int option;
      (** seeded engine tie-breaking ({!Dsmpm2_core.Dsm.create}): each seed
          explores a distinct, replayable legal interleaving *)
  observe : (Dsmpm2_core.Dsm.t -> unit) option;
      (** called with the runtime before any thread starts — enable
          monitoring here and keep the handle for post-run export *)
}

val default : config
(** 14 cities, seed 42, 4 nodes, BIP/Myrinet, li_hudak, refresh 2000. *)

type result = {
  time_ms : float;  (** simulated wall-clock of the parallel solve *)
  best : int;  (** shortest tour length found *)
  expansions : int;  (** total tree nodes expanded, all threads *)
  migrations : int;  (** thread migrations (non-zero only for migrate_thread) *)
  read_faults : int;
  write_faults : int;
  messages : int;
  final_node_of_thread : int list;
      (** where each worker ended up — shows the migrate_thread pile-up *)
  balancer_moves : int;  (** migrations the balancer requested (0 if off) *)
}

val run : config -> result
(** @raise Invalid_argument when [cities < 2]. *)

val distances : cities:int -> seed:int -> int array array
(** The seeded random distance matrix (symmetric, 1..99), exposed for the
    sequential reference and tests. *)

val solve_sequential : int array array -> int
(** Exact sequential branch-and-bound, used as the correctness oracle. *)
