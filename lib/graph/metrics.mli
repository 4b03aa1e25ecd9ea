(** Degree statistics of graphs, read from the edge orientation.

    Every statistic is one pass over the flat CSR endpoint sections
    ({!Ugraph.endpoints}), with no boxed intermediate, so they work at
    10M vertices on mmap-loaded graphs (doc/SCALING.md). *)

val in_degrees : Ugraph.t -> int array
(** [a.(v-1)] = indegree of [v]: the edges whose [dst] is [v]. *)

val out_degrees : Ugraph.t -> int array

val total_degrees : Ugraph.t -> int array
(** Loop-counts-twice convention: [in + out]. {!Ugraph.degree} counts a
    loop once — that is the observable incidence count, not this
    sum. *)

val max_in_degree : Ugraph.t -> int
val max_total_degree : Ugraph.t -> int

val mean_degree : Ugraph.t -> float
(** Mean total degree = [2m/n]. *)

val degree_counts : int array -> (int * int) list
(** [(degree, how many vertices)] pairs, ascending, zero counts
    omitted. *)

val degree_ccdf : int array -> (int * float) list
(** Complementary CDF of the degree sample: [(d, P(D >= d))] at each
    observed degree, ascending. *)

val self_loops : Ugraph.t -> int

val parallel_edges : Ugraph.t -> int
(** Number of edges beyond the first within each (unordered) endpoint
    pair; 0 for a simple graph. Counted by sorting packed endpoint
    pairs (O(m log m), one flat scratch array) rather than hashing
    them. *)

val degree_sum_invariant : Ugraph.t -> bool
(** Handshake check: sum of total degrees = 2·edges. *)
