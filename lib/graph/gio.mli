(** Serialisation of graphs: a plain edge-list text format and GraphViz
    DOT output.

    Edge-list format: first line [n m]; then one [src dst] pair per
    line, in edge-insertion order (so a round trip preserves edge ids
    and timestamps). *)

val to_edge_list : Ugraph.t -> string

val of_edge_list : string -> Ugraph.t
(** Strict parse: the declared [n m] header must match the body
    exactly — fewer edge lines than [m] is an edge-count mismatch,
    more is trailing garbage; endpoints outside [1..n], non-decimal
    integers and extra tokens are rejected.
    @raise Failure on malformed input, with a message naming the
    problem. *)

val write_edge_list : Ugraph.t -> path:string -> unit

val read_edge_list : path:string -> Ugraph.t
(** @raise Failure on I/O or parse errors; parse failures are prefixed
    with the path. *)

val to_dot : ?name:string -> ?highlight:int list -> Ugraph.t -> string
(** Directed DOT rendering, one [src -> dst] line per edge in id order;
    [highlight] vertices are filled. Intended for small demo graphs. *)
