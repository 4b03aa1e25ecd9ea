(** The strategies' work list: which discovered vertex to work on next.

    An entry holds a vertex, the index of its next handle to try and a
    float priority, in two Bigarrays outside the GC heap that only
    grow; strategies lease frontiers from the oracle arena
    ({!Oracle.frontier}), so a query starts at the high-water size.
    One frontier serves one discipline between two {!clear}s: a stack
    ({!add}, the last entry, {!drop_last}), a pool ({!add}, {!take}),
    or a max-heap ({!push}, entry 0, {!pop_max}, {!requeue}). Entries
    are numbered [0 .. length - 1], and an access to one that does not
    exist, or a removal from an empty frontier, raises
    [Invalid_argument]. Only growth allocates. *)

type t

val create : unit -> t
val clear : t -> unit
val length : t -> int

val vertex : t -> int -> int
(** [vertex t k] is the vertex of entry [k]. *)

val index : t -> int -> int
(** [index t k] is the handle index stored with entry [k]. *)

val set_index : t -> int -> int -> unit

val add : t -> int -> int -> unit
(** [add t v i] appends the entry [(v, i)]; its priority is unset. *)

val drop_last : t -> unit

val take : t -> int -> unit
(** [take t k] removes entry [k]; the last entry moves into its place. *)

val push : t -> priority:float -> int -> unit
(** Inserts a vertex into the heap with handle index 0. *)

val pop_max : t -> int
(** Removes entry 0, the highest priority, and returns its vertex. *)

val requeue : t -> unit
(** [pop_max] and then [push] of the same entry, handle index
    included, with the same priority, leaving the heap exactly as that
    pair would; the priority is never boxed. *)
