(** Random permutations and subset sampling. *)

val in_place : Rng.t -> 'a array -> unit
(** Fisher–Yates shuffle; uniform over all permutations. *)

val permutation : Rng.t -> int -> int array
(** [permutation rng n] is a uniform permutation of [0 .. n-1]. *)

val sample_without_replacement : Rng.t -> k:int -> n:int -> int array
(** [sample_without_replacement rng ~k ~n] draws [k] distinct values
    from [0 .. n-1], uniform over all k-subsets, in O(k) expected space
    and time (Floyd's algorithm). Order is not specified.
    @raise Invalid_argument if [k < 0 || k > n]. *)

val reservoir : Rng.t -> k:int -> 'a Seq.t -> 'a array
(** Uniform sample of [k] items from a sequence of unknown length
    (standard reservoir algorithm). Returns fewer than [k] items only
    when the sequence itself is shorter than [k]. *)
