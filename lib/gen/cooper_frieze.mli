(** The Cooper–Frieze general web-graph model (the model of Theorem 2).

    Evolution from an initial single vertex carrying a self-loop. At
    each step:

    - with probability [alpha], procedure {b NEW}: add a new vertex
      with [j ~ q] outgoing edges; each edge's endpoint is chosen
      {e preferentially} with probability [beta], else uniformly;
    - with probability [1 - alpha], procedure {b OLD}: pick an existing
      source vertex — uniformly with probability [delta], else
      preferentially — and give it [j ~ p_dist] new outgoing edges,
      each endpoint chosen preferentially with probability [gamma],
      else uniformly.

    "Preferentially" means proportional to indegree by default (the
    paper's rephrasing, which widens the admissible parameter range) or
    to total degree ([`Total_degree]); uniform means uniform over the
    current vertex set. The graph is connected by construction and
    keeps all self-loops and parallel edges.

    The out-degree laws [q] and [p_dist] are finite-support
    distributions, which covers every regime the experiments evaluate
    (Cooper–Frieze themselves require bounded support for most
    results). *)

type out_degree_dist = (int * float) list
(** [(value, probability)] pairs; values [>= 1], probabilities summing
    to 1 (within 1e-9). *)

type preference = In_degree | Total_degree

type params = {
  alpha : float; (** probability of a NEW step; [0 < alpha < 1] for Theorem 2 *)
  beta : float; (** NEW-edge endpoint: preferential with this probability *)
  gamma : float; (** OLD-edge endpoint: preferential with this probability *)
  delta : float; (** OLD source: uniform with this probability *)
  q : out_degree_dist; (** out-degrees of NEW vertices *)
  p_dist : out_degree_dist; (** out-degrees added by OLD steps *)
  preference : preference;
}

val default : params
(** [alpha = 1/2], all endpoint mixes [1/2], out-degrees uniform on
    [{1, 2}], indegree preference. *)

val validate : params -> (unit, string) result

val generate : Sf_prng.Rng.t -> params -> steps:int -> Sf_graph.Ugraph.t
(** Run exactly [steps] evolution steps from the initial graph.

    There is one growth loop. Edges accumulate in flat int32 endpoint
    vectors and the graph is built directly in CSR form, so graphs
    with 10^7 vertices fit comfortably in memory (doc/SCALING.md).
    Edge ids are insertion order and keep their orientation; use
    {!Sf_graph.Ugraph.to_digraph} for in- and out-degrees.
    @raise Invalid_argument if [validate] fails. *)

val generate_n_vertices : Sf_prng.Rng.t -> params -> n:int -> Sf_graph.Ugraph.t
(** Run steps until the graph has [n] vertices (so the number of steps
    is random, geometric in [alpha]); vertex [n] is the last arrival,
    the search target of Theorem 2. @raise Invalid_argument if
    [validate] fails or [n < 1]. *)

val generate_n_vertices_traced :
  Sf_prng.Rng.t -> params -> n:int -> Sf_graph.Ugraph.t * int array
(** Like {!generate_n_vertices}, draw for draw, but also returns each
    vertex's {e arrival out-degree} — the number of edges it was born
    with ([a.(v-1)]; vertex 1's initial self-loop counts as 1). A
    vertex whose final out-degree exceeds its arrival out-degree was
    later used as an OLD-step source; the Theorem 2 equivalence event
    needs to rule that out for the candidate window. *)

val mean_out_degree : out_degree_dist -> float
