(** The Móri random tree and the merged m-out Móri graph (the models of
    Theorem 1).

    Growth process, exactly as the paper states it: at time [t = 2] the
    tree has vertices [1, 2] and the single edge [2 -> 1]; at each later
    time a new vertex [t] is added together with one outgoing edge to an
    older vertex [u] chosen with probability proportional to

    {[ p * indegree_t(u) + (1 - p) ]}

    i.e. with probability [p] (of the total weight) preferentially by
    {e indegree} and with weight [(1-p)] per vertex uniformly. The
    parameter range is [0 < p <= 1]; [p = 1] is pure preferential
    attachment on indegree, and small [p] approaches the uniform random
    recursive tree.

    Sampling is exact: with probability [p·(t-2) / (p·(t-2) + (1-p)·(t-1))]
    the father is a uniform entry of the edge-destination list (which
    realises indegree-proportional choice), otherwise a uniform vertex.

    The {e merged} graph [G_t^(m)] takes the Móri tree on [n·m] vertices
    and merges consecutive blocks of [m] vertices; self-loops and
    parallel edges produced by merging are preserved. *)

val tree : Sf_prng.Rng.t -> p:float -> t:int -> Sf_graph.Ugraph.t
(** [tree rng ~p ~t] grows the Móri tree [G_t] on vertices [1..t],
    frozen from {!tree_fathers}: vertex [k >= 2] has exactly one
    out-edge, created at time [k]; edge id [k-2] is that edge, stored
    as [(k, N_k)], so edge ids are insertion timestamps. Lemmas 2–3
    and the exhaustive enumeration read the orientation through
    {!father}.
    @raise Invalid_argument unless [t >= 2], [0 < p <= 1] and
    [t - 1 <= Csr.max_edges]. *)

val tree_conditioned :
  Sf_prng.Rng.t -> p:float -> t:int -> a:int -> b:int -> Sf_graph.Ugraph.t
(** Exact sampling of [G_t] {e conditioned on the event} [E_{a,b}] of
    Lemma 2 (every vertex in [(a, b]] attaches to a vertex [<= a]).
    Conditioning is done step by step — conditional on the event's
    prefix, the indegree mass reachable by a constrained step lives
    entirely in [[1, a]], so the restricted step remains exactly
    sampleable (no rejection). It is the growth loop of {!tree} with
    the window [(a, b]] restricted; [a = b] restricts nothing. Used by
    the equivalence tests.
    @raise Invalid_argument unless [2 <= a <= b <= t]. *)

val tree_fathers : Sf_prng.Rng.t -> p:float -> t:int -> Sf_graph.Bigvec.t
(** [tree_fathers rng ~p ~t] is the growth loop itself: the father
    sequence in flat int32 storage, entry [k-2] the father of vertex
    [k]. {!tree} and {!graph} are frozen from it, so on the same stream
    all three describe the same tree. Peak memory is ~4 bytes per
    vertex, which is what makes [t = 10^7] routine (doc/SCALING.md).
    @raise Invalid_argument unless [t >= 2], [0 < p <= 1] and
    [t - 1 <= Csr.max_edges], before any growth. *)

val father : Sf_graph.Ugraph.t -> int -> int
(** [father tree k] is [N_k], the [dst] of edge [k-2] (defined for
    [k >= 2] in a Móri tree).
    @raise Invalid_argument if there is no edge [k-2] or it does not
    leave [k]. *)

val fathers : Sf_graph.Ugraph.t -> int array
(** [fathers tree] lists [N_2 .. N_t] ([a.(k-2)] = father of [k]). *)

val merge : m:int -> Sf_graph.Ugraph.t -> Sf_graph.Ugraph.t
(** [merge ~m g] merges vertex blocks [m(i-1)+1 .. mi] of [g] into
    vertex [i], mapping the endpoints of every edge in id order and
    freezing the result. Requires [m >= 1] and [m] dividing
    [n_vertices g]. Every edge of [g] survives (possibly as a
    self-loop). *)

val graph : Sf_prng.Rng.t -> p:float -> m:int -> n:int -> Sf_graph.Ugraph.t
(** [graph rng ~p ~m ~n] is the m-out Móri graph [G^(m)] on [n]
    vertices: the tree on [n·m] vertices merged by blocks of [m], built
    by mapping {!tree_fathers} through the block-merge projection edge
    by edge, with no intermediate tree. Equal (same edge ids, same
    endpoints) to [merge ~m (tree rng ~p ~t:(n * m))] on the same
    stream; {!Sf_graph.Metrics} reads in- and out-degrees from its
    edge orientation.
    @raise Invalid_argument unless [n, m >= 1] and [n·m >= 2]; and,
    before any growth, when the [n·m - 1] edges exceed
    {!Sf_graph.Csr.max_edges} ([n·m <= 2{^30}]). *)

val expected_degree_exponent : p:float -> float
(** The density exponent of the indegree power law predicted for this
    indegree-based model: with attachment weight [∝ indeg + (1-p)/p]
    the Dorogovtsev–Mendes–Samukhin formula gives [γ = 2 + (1-p)/p =
    1 + 1/p]. So [p = 1/2] reproduces the Barabási–Albert exponent 3,
    and the real-network range [γ ∈ \[2, 3\]] corresponds to
    [p ∈ \[1/2, 1)]. At [p = 1] exactly the model degenerates (vertex
    2 keeps weight 0 and the tree is a star), so no power law. *)
