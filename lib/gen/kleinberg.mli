(** Kleinberg's small-world lattice model [Kle00] — the {e navigable}
    counterpoint the paper measures the scale-free models against.

    Vertices tile a [side × side] torus; each vertex is joined to its
    four lattice neighbours (short-range) and sends [q] extra directed
    long-range edges, the endpoint at lattice distance [d] being chosen
    with probability proportional to [d^-r]. Kleinberg's theorem: with
    [r = 2] greedy geographic routing reaches any target in O(log² n)
    expected steps; for [r <> 2] every decentralised algorithm needs a
    polynomial number of steps. The degree distribution is tightly
    concentrated — this model is navigable but {e not} scale-free,
    which is exactly the gap the paper addresses. *)

type t = {
  graph : Sf_graph.Ugraph.t;
  side : int;
  r : float;
}

val generate : Sf_prng.Rng.t -> side:int -> r:float -> ?q:int -> unit -> t
(** [generate rng ~side ~r ~q ()] with [q] long-range links per vertex
    (default 1). Requires [side >= 2], [r >= 0]. Long-range sampling is
    exact: distances are drawn from the precomputed toroidal
    distance-mass table, then a uniform offset at that distance. *)

val vertex_of_coord : side:int -> row:int -> col:int -> int
(** Row-major, wrapping coordinates; result in [1 .. side²]. *)

val coord_of_vertex : side:int -> int -> int * int

val lattice_distance : side:int -> int -> int -> int
(** Toroidal Manhattan distance between two vertex ids. *)

val n_vertices : t -> int
