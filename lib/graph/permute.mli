(** Permutations of vertex labels and their action on graphs.

    The paper's equivalence technique (Definition 1/2) rests on the
    action [σ(G)]: relabel every endpoint of every edge by [σ]. A
    permutation here is an [int array] [p] of length [n] with
    [p.(v-1) = σ(v)], a bijection of [1..n]. *)

type t = int array

val identity : int -> t

val is_valid : t -> bool
(** Checks bijectivity onto [1 .. length]. *)

val apply_vertex : t -> int -> int

val compose : t -> t -> t
(** [compose s2 s1] is [σ2 ∘ σ1] (apply [s1] first). *)

val inverse : t -> t

val transposition : int -> int -> int -> t
(** [transposition n u v] swaps [u] and [v], fixing the rest of
    [1..n]. *)

val random_of_subrange : Sf_prng.Rng.t -> n:int -> lo:int -> hi:int -> t
(** Uniform permutation of the window [lo..hi], fixing the rest. *)

val apply : t -> Ugraph.t -> Ugraph.t
(** [apply sigma g] is σ(G): same vertex set, every edge [(u,v)]
    becomes [(σu, σv)]. Edge order is preserved, so edge ids still
    equal insertion timestamps.
    @raise Invalid_argument if sizes disagree or σ is not valid. *)
