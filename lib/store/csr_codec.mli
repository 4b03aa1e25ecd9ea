(** The graph container (magic [SFGB], version 2) — raw CSR sections
    behind a fixed header, designed to be read by [mmap] rather than
    decoded (byte layout in doc/STORAGE.md, memory model in
    doc/SCALING.md).

    The four {!Sf_graph.Csr} sections are stored verbatim (int32
    little-endian, 4-byte aligned), so opening a 10M-vertex graph is
    four [Unix.map_file] calls and the OS pages in only what a search
    actually touches. [srcs]/[dsts] are indexed by edge id, so edge ids
    — which double as timestamps, and which the search oracles expose
    in incidence order — round-trip exactly by construction. The price
    is ~12 bytes per edge plus ~12 per vertex on disk.

    Integrity: a trailing CRC-32 over everything before it.
    {!map_ugraph_file} verifies it by default (one streaming pass over
    the file — opening is then O(file) in I/O and CPU, through one
    fixed 64 KB buffer the CRC reads in place); passing [~verify:false]
    skips the pass and trusts the mapping — for callers that checked
    the file through [Cache.verify] out of band. Structural sanity
    (header/size arithmetic, offset endpoints) is always checked; deep
    validation is [Csr.validate] on the result.

    Written files are byte-deterministic: the same graph produces the
    same file, so content-addressing and the warm-read byte-identity
    contract of doc/STORAGE.md hold. *)

val file_bytes : n:int -> m:int -> inc_len:int -> int
(** Exact on-disk size of a graph with these section dimensions. *)

val write_ugraph_file : Sf_graph.Ugraph.t -> path:string -> unit
(** Atomic write (tmp + rename), streaming the sections through the
    CRC without materialising the file in memory.
    @raise Sys_error on I/O failure. *)

val map_ugraph_file : ?verify:bool -> path:string -> unit -> Sf_graph.Ugraph.t
(** Open a version-2 file as a CSR graph backed by shared read-only
    maps. [verify] (default [true]) streams the file once to check the
    trailing CRC before mapping.
    @raise Codec_error.Error on malformed contents, wrong version or
    checksum mismatch; [Sys_error] on I/O failure. *)

val sniff_version : string -> int option
(** Read the first bytes of a file: [Some v] for an SFGB header of
    version [v], [None] for anything else (including short files). *)

val load_ugraph : ?verify:bool -> path:string -> unit -> Sf_graph.Ugraph.t
(** The one-stop loader behind every [--graph] flag: version-2 files
    are mapped (honouring [verify]), anything without the [SFGB] magic
    is parsed as a text edge list ({!Sf_graph.Gio.read_edge_list}).
    @raise Codec_error.Error [(Unsupported_version v)] for an [SFGB]
    file of any other version — it is never read as an edge list. *)
