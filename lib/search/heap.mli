(** Binary max-heap of [int] values with [float] priorities; the
    best-first search strategies' work queue. Ties broken
    arbitrarily. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> priority:float -> int -> unit

val top : t -> int
(** The value {!pop_max} would return, left in place; nothing is
    allocated. @raise Invalid_argument when empty. *)

val pop_max : t -> int
(** Removes the highest-priority entry and returns its value; nothing
    is allocated. @raise Invalid_argument when empty. *)

val requeue : t -> unit
(** [pop_max] followed by [push] of the same value with the same
    priority, leaving the heap exactly as that pair would; the
    priority is never boxed. @raise Invalid_argument when empty. *)
