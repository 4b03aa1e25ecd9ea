(** Growable arrays of unboxed [int]s.

    The usual doubling dynamic array, specialised to [int] to avoid
    boxing and [Obj] tricks. Graphs do not use it: generators grow
    into {!Bigvec} endpoint buffers and freeze them to {!Csr}. Its
    users are the search layer's per-query scratch tables — the
    oracle's public-handle table and the DFS and random-pool
    strategies — which live on the GC heap so that starting a query
    allocates no malloc'd custom block. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val pop : t -> int
(** Remove and return the last element. @raise Invalid_argument if empty. *)

val clear : t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list
val of_array : int array -> t
val copy : t -> t
