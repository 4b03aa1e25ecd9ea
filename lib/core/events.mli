(** The containment event [E_{a,b}] of Lemma 2 and its probability
    (Lemma 3 of PAPER.md).

    [E_{a,b} = ∩_{a < k ≤ b} { N_k ≤ a }]: every vertex arriving in
    the window [(a, b]] attaches to the "old core" [[1, a]]. This is
    the event conditioning the vertex equivalence of {!Equivalence},
    and its probability is the [P(E)] factor of every
    {!Lower_bound.lemma1} bound. At generation time, the
    [gen.mori.father_age] histogram (doc/OBSERVABILITY.md) records
    the attachment ages whose old-core bias makes the event likely.

    {b Exact closed form.} Conditional on the event's prefix
    [E_{a,k-1}], every one of the [k-2] edges existing when vertex [k]
    arrives points into [[1, a]] (vertices [2..a] always attach below
    themselves; window vertices by conditioning), so the indegree mass
    inside the core is exactly [k-2] and

    {[
      P(N_k ≤ a | E_{a,k-1})
        = (p(k-2) + (1-p)a) / (p(k-2) + (1-p)(k-1))
    ]}

    deterministically — whence the product formula implemented by
    {!prob_exact}. The paper states only the bound
    [P(E_{a,b}) ≥ e^{-(1-p)}] for the window [b = a + ⌊√(a-1)⌋]
    (Lemma 3); the product makes every experiment's constant explicit
    and is verified against brute-force enumeration and Monte-Carlo in
    the test suite. Note the probability does not depend on the final
    tree size [t ≥ b]. *)

val window_end : a:int -> int
(** Lemma 3's window: [b = a + ⌊√(a-1)⌋]. Requires [a >= 2]. *)

val step_prob : p:float -> a:int -> k:int -> float
(** [P(N_k ≤ a | E_{a,k-1})] as above. Requires [2 <= a < k]. *)

val prob_exact : p:float -> a:int -> b:int -> float
(** [P(E_{a,b})], the product of {!step_prob} over the window;
    computed in log space. Requires [2 <= a <= b]; equals 1 when
    [a = b]. *)

val lemma3_bound : p:float -> float
(** [e^{-(1-p)}], Lemma 3's lower bound for the canonical window. *)

val holds : Sf_graph.Ugraph.t -> a:int -> b:int -> bool
(** Whether a realised Móri tree satisfies [E_{a,b}]. *)

val prob_monte_carlo :
  Sf_prng.Rng.t -> p:float -> a:int -> b:int -> trials:int -> float * float
(** [(estimate, standard_error)] of [P(E_{a,b})] from [trials]
    unconditioned trees of size [b]. *)
