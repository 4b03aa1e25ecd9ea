(** Random permutations and subset sampling. *)

val in_place : Rng.t -> 'a array -> unit
(** Fisher–Yates shuffle; uniform over all permutations. *)

val in_place_sub : Rng.t -> 'a array -> pos:int -> len:int -> unit
(** [in_place_sub rng a ~pos ~len] shuffles [a.(pos) .. a.(pos + len - 1)]
    and nothing else, with the same draws {!in_place} makes on an array
    of length [len]. @raise Invalid_argument if the range is not
    inside [a]. *)

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
