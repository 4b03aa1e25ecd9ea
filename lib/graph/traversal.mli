(** Breadth-first traversals and distance machinery on the undirected
    view.

    Everything here treats the graph as unoriented, matching the
    paper's searching semantics, and runs in O(n + m). *)

type vertex = int

val bfs_distances : Ugraph.t -> source:vertex -> int array
(** [dist.(v-1)] is the hop distance from [source] to [v], or [-1] if
    unreachable. *)

val shortest_path : Ugraph.t -> src:vertex -> dst:vertex -> vertex list option
(** Vertices of one shortest path, source first. *)

val component_sizes : Ugraph.t -> int array

val largest_component : Ugraph.t -> vertex list
(** Vertices of a largest connected component. *)

val is_connected : Ugraph.t -> bool

val eccentricity : Ugraph.t -> vertex -> int
(** Max distance from the vertex within its component. *)

val diameter_exact : Ugraph.t -> int
(** Exact diameter of the largest component: all-sources BFS, O(nm) —
    for small graphs and tests. *)

val diameter_double_sweep : Ugraph.t -> Sf_prng.Rng.t -> int
(** Classic lower-bound estimate: BFS from a random vertex, then from
    the farthest vertex found; returns that second eccentricity.
    Exact on trees. *)

val mean_distance_sampled : Ugraph.t -> Sf_prng.Rng.t -> samples:int -> float
(** Average pairwise hop distance estimated from BFS at sampled
    sources (within the sampled source's component). *)
