(** Deterministic, splittable pseudo-random number generator.

    The core generator is xoshiro256++ (Blackman & Vigna), seeded through
    splitmix64 so that any 64-bit seed yields a well-mixed initial state.
    Streams are {e splittable}: [split t] derives a statistically
    independent child stream from [t], which lets every trial of an
    experiment own its private stream and makes results reproducible
    independently of execution order.

    All operations mutate the state in place; copy with {!copy} when a
    snapshot is needed. *)

type t
(** Mutable generator state. *)

val of_seed : int -> t
(** [of_seed seed] creates a generator deterministically from [seed].
    Distinct seeds give streams that behave independently. *)

val split : t -> t
(** [split t] draws entropy from [t] to create a fresh, statistically
    independent generator. [t] advances; the child shares no state. *)

val split_at : t -> int -> t
(** [split_at t i] derives the [i]-th child of [t] {e without} advancing
    [t]: the child depends only on [t]'s current state and [i]. Useful to
    give trial [i] of an experiment its own stream while keeping the
    parent reusable. *)

val copy : t -> t
(** [copy t] snapshots the state; the copy evolves independently. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1]. Unbiased (rejection
    sampling). @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform on [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound) with 53-bit resolution. *)

val unit_float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val jump : t -> unit
(** Advance the state by 2^128 steps (xoshiro jump polynomial); used to
    spread sub-streams far apart in the cycle. *)

val state_fingerprint : t -> int64
(** Hash of the current state, for tests that detect state divergence. *)

val state_words : t -> int64 array
(** The four xoshiro256++ state words, as a fresh array. Together with
    {!set_state_words} this lets a cache (lib/store) snapshot a stream
    after graph generation and resume it on a cache hit, so a run that
    skips generation consumes exactly the same stream as one that does
    not. *)

val set_state_words : t -> int64 array -> unit
(** Restore a state captured by {!state_words}.
    @raise Invalid_argument unless given exactly four words. *)
