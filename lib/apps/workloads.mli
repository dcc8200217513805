(** What the application workloads share: their cost constants and the
    runtime they start from.

    All simulated CPU costs of the example applications live here so the
    communication/computation ratios are set (and documented) in one place.
    They model a 450 MHz Pentium II (the paper's nodes): very roughly 450
    simple operations per microsecond; a branch-and-bound node expansion or
    a grid-point relaxation each cost on the order of a microsecond. *)

val tsp_expand_us : float
(** One TSP search-tree node expansion (bound computation included). *)

val coloring_expand_us : float
(** One map-colouring assignment step, excluding its object accesses (those
    are charged by the DSM access path itself). *)

val jacobi_point_us : float
(** Relaxing one grid point. *)

val matmul_inner_us : float
(** One fused multiply-add of the matrix-multiply inner loop. *)

val charge_batched : Dsmpm2_core.Dsm.t -> float -> int -> unit
(** [charge_batched dsm unit_us n] accrues [n] work units lazily (see
    {!Dsmpm2_pm2.Marcel.charge}). *)

val runtime :
  app:string ->
  ?tie_seed:int ->
  nodes:int ->
  driver:Dsmpm2_net.Driver.t ->
  observe:(Dsmpm2_core.Dsm.t -> unit) option ->
  string ->
  Dsmpm2_core.Dsm.t * int
(** The runtime every application starts from: [nodes] nodes with every
    built-in and extra protocol registered, [observe] called before any
    thread exists, and the named protocol's id.  Raises [Invalid_argument]
    naming [app] on an unknown protocol. *)

val idle_rows : nodes:int -> size:int -> string option
(** Why a [size]-row block distribution over [nodes] would leave nodes
    without rows, if it would. *)

val require_rows : app:string -> nodes:int -> size:int -> unit
(** Raises [Invalid_argument] naming [app] where {!idle_rows} objects. *)
