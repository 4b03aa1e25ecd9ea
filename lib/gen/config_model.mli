(** The Molloy–Reed configuration model: "pure" random graphs with a
    prescribed degree sequence.

    This is the random-graph world of Adamic et al. [ALPH01], which the
    paper contrasts with evolving models: neighbours' degrees are
    independent here, so mean-field analyses of search are valid — and
    high-degree-seeking strategies provably help. We reproduce their
    setting with power-law degree sequences of exponent [2 < k < 3].

    Construction: each vertex receives as many {e stubs} as its degree;
    a uniform perfect matching of the stubs becomes the edge set. Self-
    loops and parallel edges occur (vanishing fraction) and are kept;
    [simple_graph] erases them when a simple graph is wanted. Edges are
    oriented arbitrarily (stub order); searching uses the undirected
    view as always. *)

val of_degree_sequence : Sf_prng.Rng.t -> int array -> Sf_graph.Ugraph.t
(** [of_degree_sequence rng deg] builds a uniform configuration-model
    multigraph where vertex [v] has total degree [deg.(v-1)].
    @raise Invalid_argument if any degree is negative or the sum is
    odd. *)

val power_law_degrees :
  Sf_prng.Rng.t -> n:int -> exponent:float -> d_min:int -> ?d_max:int -> unit -> int array
(** I.i.d. degrees with [P(d) ∝ d^-exponent] on [d_min .. d_max]
    ([d_max] defaults to the natural cutoff [n^(1/(exponent-1))],
    capped at [n-1]); if the sum comes out odd, one uniformly chosen
    vertex gets one extra stub. *)

val power_law :
  Sf_prng.Rng.t -> n:int -> exponent:float -> ?d_min:int -> ?d_max:int -> unit -> Sf_graph.Ugraph.t
(** Configuration-model graph over {!power_law_degrees}
    ([d_min] defaults to 1). *)

val simple_graph : Sf_graph.Ugraph.t -> Sf_graph.Ugraph.t
(** Copy with self-loops removed and parallel edges collapsed (first
    occurrence kept). Degree sequence changes accordingly. *)

val searchable_power_law :
  Sf_prng.Rng.t -> n:int -> exponent:float -> ?d_min:int -> ?d_max:int -> unit
  -> Sf_graph.Ugraph.t
(** The graph the search experiments use: largest connected component
    of a power-law configuration graph, relabelled [1..n']. With
    [d_min >= 2] the giant component covers almost all vertices. *)
