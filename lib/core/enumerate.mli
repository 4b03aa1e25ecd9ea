(** Exhaustive enumeration of the Móri-tree probability space.

    A tree [G_t] is determined by its father sequence
    [(N_3, …, N_t)] with [N_k ∈ [1, k-1]]; the space has [(t-1)!/1!]
    outcomes, each carrying an exact product probability. For small
    [t] this enumerates everything — the ground truth against which
    the closed forms ({!Events.prob_exact}) and the conditional
    sampler are validated, and the engine of the {e exact} Lemma 2
    verification. *)

val n_outcomes : t:int -> int
(** [(t-1)! / 1] — the number of father sequences, i.e. [∏_{k=3}^t (k-1)].
    Guards against accidental blow-ups: raises above [t = 12]. *)

val fold :
  p:float ->
  t:int ->
  init:'a ->
  f:('a -> prob:float -> fathers:int array -> 'a) ->
  'a
(** Visit every father sequence with its exact probability. The
    [fathers] array is reused between calls — copy if retained.
    [fathers.(k-2)] is [N_k]; [fathers.(0) = 1] always (vertex 2
    attaches to vertex 1). Probabilities sum to 1 (validated in
    tests). @raise Invalid_argument beyond [t = 12]. *)

val graph_of_fathers : int array -> Sf_graph.Ugraph.t
(** The labelled tree with the given father sequence. *)

val distribution :
  p:float ->
  t:int ->
  ?condition:(Sf_graph.Ugraph.t -> bool) ->
  unit ->
  (string * float) list
(** The exact probability distribution over labelled trees, as
    (canonical key, probability) pairs sorted by key, conditioned on
    [condition] (renormalised); the empty list if the condition has
    probability 0. *)

val event_prob :
  p:float -> t:int -> condition:(Sf_graph.Ugraph.t -> bool) -> float
(** Exact probability of an arbitrary graph event, by enumeration. *)

val fold_rational :
  p_num:int ->
  p_den:int ->
  t:int ->
  init:'a ->
  f:('a -> prob:Rational.t -> fathers:int array -> 'a) ->
  'a
(** {!fold} in exact rational arithmetic, for rational
    [p = p_num / p_den]: the step probability
    [(c·indeg(u) + (d−c)) / (c(k−2) + (d−c)(k−1))] is a ratio of small
    integers, so every outcome probability is an exact fraction and
    the total is exactly 1. Requires [0 < p_num <= p_den] and
    [t <= 12]; raises {!Rational.Overflow} if 64-bit fractions ever
    fail to suffice (they do not for the supported range). *)
