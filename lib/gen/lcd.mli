(** The Bollobás–Riordan LCD model [BR03] — the mathematically precise
    Barabási–Albert formalisation the paper cites.

    For m = 1: vertex [t] attaches to vertex [u ≤ t] with probability
    [deg(u) / (2t − 1)] for [u < t] and [1 / (2t − 1)] for the
    self-loop (the edge being added counts its own first endpoint).
    For m > 1: run the m = 1 process to [n·m] vertices and contract
    consecutive blocks of [m] (exactly the construction this library
    also uses for the merged Móri graph).

    Why it is here: the paper's concluding remark observes that for
    preferential attachment by {e total} degree — BA/LCD — the maximum
    degree grows like [t^{1/2}], which is {e not} significantly smaller
    than [n^{1/2}], so the strong-model corollary becomes trivial for
    these models. Experiment T16 measures exactly that. *)

val tree1 : Sf_prng.Rng.t -> t:int -> Sf_graph.Ugraph.t
(** The m = 1 LCD process on [1..t]; vertex 1's edge is always a
    self-loop. Requires [t >= 1]. *)

val generate : Sf_prng.Rng.t -> n:int -> m:int -> Sf_graph.Ugraph.t
(** LCD graph with parameter [m] on [n] vertices. *)

val max_degree_exponent : float
(** [1/2]: the growth exponent of the maximum degree — at the critical
    boundary where the paper's strong-model bound loses its content. *)
