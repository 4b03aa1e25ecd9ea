(** Binary max-heap of [int] values with [float] priorities; the
    best-first search strategies' work queue. Ties broken
    arbitrarily. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> priority:float -> int -> unit

val max_priority : t -> float
(** Priority of the entry {!pop_max} would remove.
    @raise Invalid_argument when empty. *)

val pop_max : t -> int
(** Removes the highest-priority entry and returns its value; nothing
    is allocated. @raise Invalid_argument when empty. *)
