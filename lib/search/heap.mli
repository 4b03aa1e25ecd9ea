(** Binary max-heap of [int] values with [float] priorities; the
    best-first search strategies' work queue. Ties broken
    arbitrarily. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> priority:float -> int -> unit

val pop_max : t -> (float * int) option
(** Highest-priority entry, or [None] when empty. *)
