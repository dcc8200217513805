(** The DSM page manager's distributed table (one instance per node).

    Following the paper's design discussion (Section 2.2), the entry layout
    carries the fields "common to virtually all protocols" — access rights,
    probable owner, home node, copyset, the protocol id — plus an {e
    extensible} slot ([ext], and a per-node [node_ext] map) so that "new
    information fields can be added, as needed by the protocols of interest"
    without touching the generic core.  A field may have different semantics
    in different protocols and may be left unused by some (e.g. [prob_owner]
    is the dynamic-manager chain for [li_hudak] but frozen at [home] for the
    home-based protocols).

    Entries also carry the fault-coalescing state ([faulting] + condition)
    that makes the table safe for an arbitrary number of concurrent threads
    per node: concurrent faults on one page coalesce, faults on different
    pages proceed in parallel.

    The tables are sparse.  Allocation records one row per page in the
    {!directory} shared by all nodes (home and protocol) and declares only
    the home's entry; every other node's entry is created by its first
    {!find}, in the state the row implies.  A table therefore holds the
    pages its node has touched or homes, not every page of every region. *)

open Dsmpm2_sim
open Dsmpm2_pm2

type ext = ..
(** Protocol-specific page or node state. *)

type ext += No_ext

type entry = {
  page : int;
  mutable rights : Dsmpm2_mem.Access.t;
  mutable prob_owner : int;
  mutable home : int;
  mutable copyset : int list;  (** sorted, without duplicates *)
  mutable protocol : int;
  mutable faulting : bool;  (** a local fault is in progress on this page *)
  mutable pinned : bool;
      (** a fault was just satisfied and the faulting thread has not yet
          retried its access; remote services must wait (see
          {!Protocol_lib.wait_for_service}) so the local access cannot be
          starved by back-to-back ownership requests *)
  fault_done : Marcel.Cond.t;
  entry_mutex : Marcel.Mutex.t;  (** serialises server-side transitions *)
  mutable twin : bytes option;
  mutable ext : ext;
}

type t

exception Not_mapped of int
(** Raised when touching a page no allocation ever mapped: the simulated
    equivalent of a segmentation fault outside the DSM area. *)

(** {1 The page directory} *)

type directory
(** One row per mapped page, shared by every node's table: the page's home
    node and its current protocol. *)

val create_directory : unit -> directory

val map : directory -> page:int -> home:int -> protocol:int -> unit
(** Adds [page]'s row; raises [Invalid_argument] if already mapped. *)

val home_of : directory -> int -> int
(** @raise Not_mapped if the page is in no region. *)

val protocol_of : directory -> int -> int
(** @raise Not_mapped if the page is in no region. *)

val set_protocol : directory -> page:int -> int -> unit
(** The protocol later first touches of [page] take; existing entries are
    the caller's to update.  @raise Not_mapped if the page is in no
    region. *)

val mapped_pages : directory -> int list
(** Sorted. *)

(** {1 Per-node tables} *)

val create : directory -> node:int -> t
val node : t -> int

val set_metrics : t -> Metrics.t -> unit
(** Attaches the runtime's metrics registry; the table then counts the
    entries it materialises per node ("page.mapped"), declared or created
    on first touch. *)

val declare :
  t ->
  page:int ->
  home:int ->
  owner:int ->
  protocol:int ->
  rights:Dsmpm2_mem.Access.t ->
  entry
(** Adds an entry for [page]; raises [Invalid_argument] if already present. *)

val find : t -> int -> entry
(** The node's entry for [page], created on first use from the page's
    directory row: no rights, [prob_owner] = [home], the row's protocol,
    an empty copyset.  A repeated lookup of the same page is served from a
    one-entry cache and allocates nothing.
    @raise Not_mapped if the page has neither an entry nor a row. *)

val find_opt : t -> int -> entry option
(** The entry if this node has one; never creates it.  For observers: a
    missing entry stands for the default state {!find} would create. *)

val mem : t -> int -> bool
(** Whether this node has an entry for the page (declared or touched). *)

val entries : t -> entry list
(** The entries this node has, sorted by page number. *)

val copyset_add : entry -> int -> unit
val copyset_remove : entry -> int -> unit

val node_ext : t -> protocol:int -> ext
(** Per-(node, protocol) state; [No_ext] when never set. *)

val set_node_ext : t -> protocol:int -> ext -> unit
