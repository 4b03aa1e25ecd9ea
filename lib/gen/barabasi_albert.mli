(** The Barabási–Albert preferential-attachment model (classic
    total-degree variant), used as the [p = 1] reference point and for
    the degree-law and max-degree comparisons.

    Growth: start from a small seed; each arriving vertex sends [m]
    out-edges, each to an existing vertex chosen with probability
    proportional to its {e total} degree (loop counts twice). The [m]
    choices are made sequentially, degrees updating as edges land
    (Bollobás–Riordan convention); parallel edges are allowed and kept.

    This differs from {!Mori} in two deliberate ways, both discussed in
    the paper: preference is by total degree (not indegree), and
    multiple edges per step are native (not obtained by merging). *)

val generate : Sf_prng.Rng.t -> n:int -> m:int -> Sf_graph.Ugraph.t
(** [generate rng ~n ~m] grows the BA graph to [n] vertices with [m]
    edges per arrival. The seed is vertices [1, 2] joined by an edge.
    @raise Invalid_argument unless [n >= 2] and [m >= 1]. *)
