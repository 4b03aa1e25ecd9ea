(** Discrete power-law tail fitting (Clauset–Shalizi–Newman style),
    used to check that the generators actually produce the scale-free
    degree laws the paper relies on (exponent in [2, 3], Móri exponent
    [1 + 2/p]).

    The model: [P(X = x) = x^-alpha / ζ(alpha, x_min)] for
    [x >= x_min], with [ζ] the Hurwitz zeta function. *)

type fit = {
  alpha : float; (** fitted exponent *)
  x_min : int; (** tail cutoff used *)
  n_tail : int; (** sample points in the tail *)
  ks : float; (** Kolmogorov–Smirnov distance of the fit *)
}

val hurwitz_zeta : alpha:float -> q:float -> float
(** [Σ_{k≥0} (q + k)^-alpha], for [alpha > 1], [q > 0]; Euler–Maclaurin
    tail correction, accurate to ~1e-10. *)

val mle_alpha : int array -> x_min:int -> float
(** Exact discrete maximum-likelihood exponent: maximises
    [-α Σ log xᵢ - n log ζ(α, x_min)] (golden-section search on the
    concave log-likelihood). Unbiased even for [x_min = 1], where the
    continuous approximation is badly off.
    @raise Invalid_argument if no sample point reaches [x_min]. *)

val fit : int array -> x_min:int -> fit
(** MLE exponent plus the KS distance between the empirical tail CDF
    and the fitted zeta model. *)

val fit_scan : int array -> ?x_min_candidates:int list -> unit -> fit
(** Choose [x_min] among the candidates (default: all distinct sample
    values up to the 90th percentile) minimising the KS distance —
    the CSN recipe. *)
