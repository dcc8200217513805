(** Array-based binary min-heap, parameterised by an ordering on elements.

    Used as the event queue of the simulator; the ordering must be total for
    the simulation to be deterministic (ties are broken by the caller with a
    sequence number). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val add : 'a t -> 'a -> unit
val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val top : 'a t -> 'a
(** The minimum element, without the option [peek] allocates.  Raises
    [Invalid_argument] on an empty heap. *)

val remove_top : 'a t -> unit
(** Removes the minimum element.  Raises [Invalid_argument] on an empty
    heap. *)

val clear : 'a t -> unit
