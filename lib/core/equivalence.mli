(** Probabilistic vertex equivalence (Definitions 1–2 of PAPER.md)
    and the verification of Lemma 2.

    Lemma 2 is the engine of both theorems: conditional on the
    containment event [E_{a,b}] ({!Events}), the window vertices of a
    Móri tree are equivalent, so no searcher can tell them apart and
    Lemma 1 ({!Lower_bound.lemma1}) applies.

    A vertex set [V] is equivalent conditional on an event [E] when,
    for every [σ ∈ S_V], the conditional laws of [G] and [σ(G)]
    coincide. Two checkers:

    - {!exact}: for small [t], enumerate the whole probability space
      ({!Enumerate}), build the conditional distribution over labelled
      trees, and compare it with its image under every transposition
      of the window (transpositions generate [S_V], and the
      permutation action on distributions is a group homomorphism, so
      invariance under transpositions gives invariance under all of
      [S_V]). The reported discrepancy is a hard number — Lemma 2
      predicts 0 up to float rounding.

    - {!monte_carlo}: at experiment scale, sample trees {e conditioned
      on} [E_{a,b}] (exact conditional sampler,
      {!Sf_gen.Mori.tree_conditioned}), and compare a window statistic
      of [G] against the same statistic of [σ(G)] with a chi-square
      two-sample test. Under Lemma 2 the test must not reject (beyond
      its level); for the {e unconditioned} model it must reject for
      wide windows — the negative control showing the test has
      power. *)

type exact_report = {
  a : int;
  b : int;
  t : int;
  n_outcomes : int;
  event_prob : float; (** exact [P(E_{a,b})] from enumeration *)
  permutations_checked : int;
  max_discrepancy : float;
      (** max over checked σ and graph keys of
          [|P(G = g | E) - P(σG = g | E)|] *)
}

val exact : p:float -> t:int -> a:int -> b:int -> exact_report
(** @raise Invalid_argument if [t > 12] (enumeration blow-up guard) or
    the window is malformed. *)

type rational_report = {
  equal : bool;
      (** the conditional laws of [G] and [σ(G)] agree {e exactly},
          fraction by fraction, for every window transposition *)
  event_prob : Rational.t; (** exact [P(E_{a,b})] as a fraction *)
  outcomes_conditioned : int;
  permutations_checked : int;
}

val exact_rational :
  p_num:int -> p_den:int -> t:int -> a:int -> b:int -> rational_report
(** {!exact} with {e no floating point}: for rational [p], every
    outcome probability is an exact 64-bit fraction, so the
    distribution comparison is literal equality — a machine-checked
    certificate of Lemma 2 for the given instance rather than an
    epsilon test. @raise Rational.Overflow if 64 bits ever fail to
    suffice (they do not for [t <= 12] and small denominators). *)

type mc_report = {
  trials : int;
  chi_square : float;
  dof : int;
  p_value : float;
  tv_distance : float; (** total variation between the two samples *)
}

val window_statistic : Sf_graph.Ugraph.t -> a:int -> b:int -> string
(** The projection used by the Monte-Carlo test: capped
    (indegree, father-class) labels of fixed window slots — all slots
    for windows of width ≤ 4, else the first, middle and last. Being a
    fixed function of the labelled graph, it is a legitimate test
    statistic for distribution equality of [G] vs [σ(G)]; its coarse
    category space keeps the chi-square calibrated at a few thousand
    samples. *)

val monte_carlo :
  Sf_prng.Rng.t ->
  p:float ->
  t:int ->
  a:int ->
  b:int ->
  trials:int ->
  sigma:Sf_graph.Permute.t ->
  conditioned:bool ->
  mc_report
(** Sample [trials] trees for each side ([G] vs [σ(G)]), conditioned
    on [E_{a,b}] when [conditioned] (Lemma 2's hypothesis) or
    unconditioned (the negative control), and chi-square-compare the
    window statistics. [sigma] must permute only [[a+1, b]]. *)

val random_window_sigma :
  Sf_prng.Rng.t -> t:int -> a:int -> b:int -> Sf_graph.Permute.t
(** A uniform non-trivial permutation of the window (resampled until
    it differs from the identity; requires [b > a]). *)
