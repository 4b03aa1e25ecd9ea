(** The graph type: a frozen multigraph, oriented by storage and
    searched undirected.

    The paper's graphs grow {e oriented}, with edge ids that are
    insertion timestamps, but "searching always takes place in the
    corresponding unoriented graph". Every generator therefore appends
    its edges to endpoint buffers and freezes them into this view.
    The orientation survives as data: {!endpoints} returns [(src, dst)]
    for an edge id, which is where in-degrees, out-degrees and Móri
    fathers are read from ({!Metrics}, [Sf_gen.Mori.father]).
    Searching never mutates the graph, so the view is immutable with
    O(1) incidence lookups — the structure the oracles and traversals
    operate on.

    The view is backed by flat {!Csr} storage: four unboxed [int32]
    Bigarray sections, ~12–16 bytes per edge, and the same layout an
    SFGB-v2 file carries on disk — {!of_csr} is how the mmap loader
    (lib/store) wraps a file-backed graph in this interface with zero
    copying.

    Conventions (searches replay byte-for-byte on them):
    - edge ids [0 .. m-1] are insertion order, so they double as
      timestamps;
    - the incidence list of [v] contains each incident edge {e once},
      including self-loops (a self-loop at [v] is one handle whose far
      endpoint is [v] itself), in ascending edge-id (= insertion)
      order;
    - [degree v] is the length of that list. This is the degree a
      searcher observes: the number of distinct requests available at
      [v]. Use {!Metrics.total_degrees} for the loop-counts-twice
      convention. *)

type vertex = int
type t

val of_edges : n:int -> (vertex * vertex) list -> t
(** [of_edges ~n pairs] is the graph on vertices [1..n] whose edge [i]
    is the [i]-th pair, oriented [(src, dst)]. Self-loops and parallel
    edges are kept.
    @raise Invalid_argument if an endpoint lies outside [1..n]. *)

val of_csr : Csr.t -> t
(** O(1) adoption of CSR storage — generator and mmap fast path. *)

val csr : t -> Csr.t
(** The backing storage; O(1). Used by the store layer to serialise
    the sections as they are. *)

val n_vertices : t -> int
val n_edges : t -> int

val degree : t -> vertex -> int

val incident : t -> vertex -> int array
(** Ids of the edges incident to [v], in insertion order, as a
    {e freshly allocated} array. Prefer {!incident_nth} /
    {!iter_incident} on hot paths — they read the CSR row in place. *)

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

val equal_structure : t -> t -> bool
(** Equality of labelled multigraphs: same vertex count and the same
    {e multiset} of directed edges (edge order ignored). *)

val canonical_key : t -> string
(** A string that is equal for two graphs iff {!equal_structure} holds.
    Used to key empirical distributions over labelled graphs. *)
