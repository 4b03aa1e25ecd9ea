(** The Watts–Strogatz small-world model — the third classic
    small-world construction, completing the contrast set: clustered
    like a lattice, short paths like a random graph, but with a
    {e concentrated} degree distribution (no hubs), unlike the
    scale-free models the paper studies.

    Construction: a ring of [n] vertices each joined to its [k/2]
    nearest neighbours on each side; every edge's far endpoint is then
    rewired to a uniform non-duplicate vertex with probability
    [beta]. *)

val generate :
  Sf_prng.Rng.t -> n:int -> k:int -> beta:float -> Sf_graph.Ugraph.t
(** Requires [n > k >= 2], [k] even, [0 <= beta <= 1]. The result is a
    simple graph with exactly [n·k/2] edges. *)
