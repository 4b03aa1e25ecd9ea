(** Erdős–Rényi random graphs, the classical control with Poisson-like
    degrees (no hubs, no power law). *)

val gnm : Sf_prng.Rng.t -> n:int -> m:int -> Sf_graph.Ugraph.t
(** Uniform simple graph with exactly [m] distinct undirected edges
    (no self-loops); orientation is the sampling order.
    @raise Invalid_argument if [m] exceeds [n(n-1)/2]. *)

val gnp : Sf_prng.Rng.t -> n:int -> p:float -> Sf_graph.Ugraph.t
(** Each unordered pair independently present with probability [p];
    sampled in expected O(n + m) time by geometric skipping. *)
