(** Exact rational arithmetic on 64-bit integers, with overflow
    detection.

    Purpose-built for the exact verification of Lemma 2
    ({!Equivalence.exact_rational}): the probability of a small Móri
    tree with rational [p = num/den] is a product of small fractions,
    so the whole equivalence check can run with {e no floating point
    at all} — equal distributions compare equal exactly, not within an
    epsilon. Every operation normalises (gcd-reduced, positive
    denominator) and raises {!Overflow} instead of wrapping, so a
    completed computation is a certificate. *)

type t
(** A normalised fraction. *)

exception Overflow

val make : int64 -> int64 -> t
(** [make num den]. @raise Invalid_argument if [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int64
(** In lowest terms, over a positive denominator. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Invalid_argument on division by zero.
    @raise Overflow when a result does not fit in 64 bits. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val to_float : t -> float
