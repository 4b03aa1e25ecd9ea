(** Streaming univariate summaries (Welford accumulation) and
    normal-approximation confidence intervals. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two points. *)

val min_value : t -> float
val max_value : t -> float
val total : t -> float

val ci95 : t -> float * float
(** Normal-approximation 95% confidence interval for the mean. *)

val ci95_halfwidth : t -> float

val merge : t -> t -> t
(** Summary of the union of the two samples. *)

val of_array : float array -> t
val of_int_array : int array -> t
