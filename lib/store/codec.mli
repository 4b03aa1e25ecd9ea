(** The versioned binary graph format (magic [SFGB], version 1) —
    byte layout in doc/STORAGE.md.

    The encoding is CSR-shaped: per-vertex out-degrees, then each
    vertex's out-neighbour row as zigzag-varint deltas. Rows keep
    edges in insertion order {e within} the row, and a trailing
    permutation section (present only when needed) recovers the global
    edge-insertion order exactly — edge ids double as timestamps in
    this codebase, and the search oracles expose incidence in id
    order, so a decoded graph must reproduce search runs
    byte-for-byte, not merely be isomorphic. Growth-model graphs
    insert edges in source order, so the permutation section is
    usually absent and the format costs ~1–2 bytes per edge.

    A CRC-32 of everything before it trails the payload. {!decode} is
    strict: bad magic, unsupported version, checksum mismatch,
    truncation, degree/edge-count disagreement, out-of-range
    endpoints, a non-permutation order section and trailing bytes all
    raise {!Codec_error.Error} — nothing is repaired silently.

    Reads and writes are timed into the [store.read_s] /
    [store.write_s] registry timers and bracketed by [store.read] /
    [store.write] trace events (doc/OBSERVABILITY.md). *)

val magic : string
(** The 4-byte magic, ["SFGB"]. *)

val version : int

val encode : Sf_graph.Digraph.t -> string
(** Exact encoding: [decode (encode g)] reproduces vertex count and
    the edge sequence (id, src, dst) of [g] exactly. *)

val decode : string -> Sf_graph.Digraph.t
(** @raise Codec_error.Error on any malformed input. *)

val encode_ugraph : Sf_graph.Ugraph.t -> string
(** Encodes the directed multigraph underlying the view — a
    {!Sf_graph.Ugraph.t} retains every edge's oriented endpoints in id
    order, so this is exact, not a symmetrised approximation. *)

val decode_ugraph : string -> Sf_graph.Ugraph.t

val looks_binary : string -> bool
(** Whether a byte prefix (≥ 4 bytes) carries the format magic — the
    sniff used by the CLI tools to accept [.sfg] and edge-list inputs
    through one flag. *)

val write_graph_file : Sf_graph.Digraph.t -> path:string -> unit
(** Atomic write: encode to [path ^ ".tmp.<pid>"], then rename.
    @raise Sys_error on I/O failure. *)

val read_graph_file : path:string -> Sf_graph.Digraph.t
(** @raise Codec_error.Error on malformed contents (the message of a
    wrapped [Sys_error] names [path]). *)

val read_any_file : path:string -> Sf_graph.Digraph.t
(** Sniff the first bytes: binary graphs go through {!decode},
    anything else through {!Sf_graph.Gio.of_edge_list}. *)
