(** Frozen undirected incidence view of a directed multigraph.

    The paper's graphs grow {e oriented}, but "searching always takes
    place in the corresponding unoriented graph". Searching also never
    mutates the graph, so this view is an immutable snapshot with
    O(1) incidence lookups — the structure the oracles and traversals
    operate on.

    Since the giant-graph engine (doc/SCALING.md) the view is backed
    by flat {!Csr} storage: four unboxed [int32] Bigarray sections
    instead of boxed per-vertex arrays, ~12–16 bytes per edge, and the
    same layout an SFGB-v2 file carries on disk — {!of_csr} is how the
    mmap loader (lib/store) wraps a file-backed graph in this
    interface with zero copying.

    Conventions (unchanged across the CSR refactor — searches replay
    byte-for-byte):
    - edge ids are those of the underlying {!Digraph.t};
    - the incidence list of [v] contains each incident edge {e once},
      including self-loops (a self-loop at [v] is one handle whose far
      endpoint is [v] itself), in ascending edge-id (= insertion)
      order;
    - [degree v] is the length of that list. This is the degree a
      searcher observes: the number of distinct requests available at
      [v]. Use {!Digraph.degree} for the loop-counts-twice convention. *)

type vertex = int
type t

val of_digraph : Digraph.t -> t

val to_digraph : t -> Digraph.t
(** The oriented graph back, edges re-added in id order, so
    [of_digraph (to_digraph t)] equals [t]. A fresh boxed copy, O(n + m):
    for callers that need {!Digraph} semantics, such as out-degrees or a
    self-loop counted twice. *)

val of_csr : Csr.t -> t
(** O(1) adoption of CSR storage — generator and mmap fast path. *)

val csr : t -> Csr.t
(** The backing storage; O(1). Used by the store layer to serialise
    without an intermediate {!Digraph}. *)

val n_vertices : t -> int
val n_edges : t -> int

val degree : t -> vertex -> int

val incident : t -> vertex -> int array
(** Ids of the edges incident to [v], in insertion order, as a
    {e freshly allocated} array. Prefer {!incident_nth} /
    {!iter_incident} on hot paths — they read the CSR row in place. *)

val incident_count : t -> vertex -> int
(** Same as {!degree}; named for symmetry with {!incident_nth}. *)

val incident_nth : t -> vertex -> int -> int
(** [incident_nth t v i] is the [i]-th incident edge id of [v],
    [0 <= i < degree t v], without allocating.
    @raise Invalid_argument if out of range. *)

val iter_incident : t -> vertex -> (int -> unit) -> unit
(** Visits [v]'s incident edge ids in insertion order, allocation-free. *)

val endpoints : t -> int -> vertex * vertex
(** [(src, dst)] of the underlying directed edge. *)

val other_endpoint : t -> edge_id:int -> vertex -> vertex
(** The endpoint of [edge_id] that is not [v] (or [v] for a self-loop).
    @raise Invalid_argument if [v] is not an endpoint of the edge. *)

val iter_neighbors : t -> vertex -> (vertex -> unit) -> unit
(** Visits the far endpoint of every incident edge (with multiplicity;
    a self-loop visits [v] once). *)

val neighbors : t -> vertex -> vertex list

val max_degree : t -> int

val mem_vertex : t -> vertex -> bool

val memory_bytes : t -> int
(** Resident bytes of the backing CSR sections. *)
