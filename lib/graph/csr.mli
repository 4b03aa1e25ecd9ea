(** Flat CSR storage for frozen multigraphs — the giant-graph engine's
    memory layout (doc/SCALING.md).

    Four unboxed [int32] Bigarray sections hold everything:

    - [srcs]/[dsts] — oriented endpoints by edge id (insertion order,
      the timestamps the paper's models rely on);
    - [inc_start]/[inc] — per-vertex incidence rows in compressed
      sparse row form: vertex [v]'s incident edge ids occupy slots
      [inc_start.(v-1) .. inc_start.(v) - 1] of [inc], ascending.

    Cost: 4 bytes per vertex for offsets plus 12–16 bytes per edge
    (8 for endpoints, 4 per incidence slot; a self-loop takes one slot,
    every other edge two), with no GC-scanned payload. The same
    four sections are what the SFGB-v2 container (doc/STORAGE.md)
    lays out on disk, so an mmapped file {e is} a valid [t] with zero
    copying.

    Invariants (checked by constructors, re-checkable with
    {!validate}): endpoints lie in [1..n]; [inc_start] is monotone
    from 0 to [dim inc]; each row lists incident edge ids in
    ascending id order, self-loops once. These are {!Ugraph}'s
    observable conventions.

    Limits: [n <= 2{^31} - 1] vertices and [m <= 2{^30} - 1] edges
    (an incidence section of up to [2m] slots must itself be
    addressable in 32 bits). *)

type vertex = int
type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  n : int;
  m : int;
  srcs : buf;
  dsts : buf;
  inc_start : buf;
  inc : buf;
}

val max_vertices : int
val max_edges : int

(** {1 Construction} *)

val of_endpoint_bufs : n:int -> buf -> buf -> t
(** [of_endpoint_bufs ~n srcs dsts] takes ownership of the endpoint
    buffers and builds the incidence sections in O(n + m). Edges may
    arrive in any source order.
    @raise Invalid_argument on out-of-range endpoints or counts. *)

val of_bigvecs : n:int -> Bigvec.t -> Bigvec.t -> t
(** Same, from growth vectors (copied to exact-length buffers). This is
    how every generator freezes: it appends each edge's [src] and
    [dst] to two {!Bigvec}s, so edge ids are insertion order. *)

val of_sections :
  n:int -> m:int -> srcs:buf -> dsts:buf -> inc_start:buf -> inc:buf -> t
(** Adopt pre-built sections verbatim — the mmap loader's entry point.
    Performs {e no} validation; callers must either trust the source
    (CRC-verified container) or run {!validate}. *)

(** {1 Queries — all O(1) unless noted} *)

val n_vertices : t -> int
val n_edges : t -> int
val mem_vertex : t -> vertex -> bool

val src : t -> int -> vertex
(** Unchecked endpoint read by edge id (hot path). *)

val dst : t -> int -> vertex

val degree : t -> vertex -> int
(** Observable degree: incidence-row length (self-loop counts once). *)

val incident_nth : t -> vertex -> int -> int
(** [incident_nth t v i] is the [i]-th incident edge id of [v].
    @raise Invalid_argument if out of range. *)

val iter_incident : t -> vertex -> (int -> unit) -> unit
val iter_neighbors : t -> vertex -> (vertex -> unit) -> unit

val max_degree : t -> int
(** O(n). *)

val memory_bytes : t -> int
(** Resident bytes of the four sections (doc/SCALING.md's model). *)

(** {1 Whole-structure checks} *)

val validate : t -> (unit, string) result
(** Full structural audit in O(n + m) time and O(n + m) scratch:
    endpoint ranges, offset monotonicity, and an exact rebuild
    comparison of the incidence sections. Run on data adopted via
    {!of_sections} when the source is not already integrity-checked. *)

val equal : t -> t -> bool
(** Same vertex count and identical edge sequence (id, src, dst). *)
