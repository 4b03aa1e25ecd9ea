(** The content-addressed on-disk corpus cache.

    Layout under the cache directory:
    {v
    DIR/
      index.jsonl          one JSON object per line (append-only log)
      objects/<fp>.sfg     SFGB v2 graphs ({!Csr_codec}), named by fingerprint
    v}

    The index is a log, not a table: an entry line re-registers its
    fingerprint, a touch line refreshes its LRU position, and the last
    line wins. Loading replays the log, parsing each line with
    {!Sf_obs.Json} and skipping any line that does not parse or lacks
    a field; {!gc} compacts it. Object files are written to a [.tmp.<pid>] name
    and renamed into place, so readers never observe a half-written
    graph; concurrent writers of the same fingerprint carry identical
    bytes by construction (the address is a pure function of the
    generation coordinate), so last-write-wins renames are safe.

    {b Corruption handling.} A hit whose object file is missing,
    truncated, fails the container checksum or carries another format
    version (an object written by the retired version-1 codec) — or
    whose index metadata is unusable — counts into [cache.corrupt],
    evicts the entry, and
    reports a miss: the caller regenerates and re-stores, and the run
    completes with the same results it would have produced cold
    (doc/STORAGE.md, determinism contract).

    {b Instrumentation.} [cache.hit], [cache.miss], [cache.evict],
    [cache.corrupt] counters, [cache.hit]/[cache.miss]/[cache.corrupt]
    trace instants, plus the [store.map_s]/[store.write_giant_s] timers
    of {!Csr_codec} underneath. All operations are serialised on an internal
    mutex, so a cache may be shared by every domain of a
    {!Sf_parallel.Pool}; counters tick inside the per-task capture and
    merge deterministically (doc/PARALLELISM.md). *)

type t

type entry = {
  fp : string;  (** content address (32 hex digits) *)
  desc : string;  (** human-readable coordinate *)
  gen : string;
  n : int;
  target : int;  (** search target packaged with the graph *)
  rng_after : string;  (** post-generation rng token *)
  bytes : int;  (** object size on disk *)
  seq : int;  (** LRU clock: higher = more recently used *)
}

val open_dir : string -> t
(** Create the directory (and [objects/]) if missing, replay the
    index.
    @raise Sys_error when the path exists but is not writable. *)

val dir : t -> string

val find : t -> Fingerprint.key -> (Sf_graph.Ugraph.t * entry) option
(** The stored graph, mapped as an mmap-backed CSR view
    ({!Csr_codec.map_ugraph_file}, CRC verified), plus its metadata on
    a hit (refreshing its LRU position); [None] — after the counter
    and eviction bookkeeping described above — on a miss or a corrupt
    entry. *)

val add :
  t -> Fingerprint.key -> graph:Sf_graph.Ugraph.t -> target:int -> rng_after:string -> unit
(** Store an object in the version-2 container and append its index
    line. Re-adding a fingerprint overwrites the object and supersedes
    the line. *)

val mem : t -> Fingerprint.key -> bool
(** Pure membership probe — no counters, no LRU touch. *)

val entries : t -> entry list
(** Least-recently-used first. *)

val total_bytes : t -> int

val gc : t -> budget_bytes:int -> entry list
(** Evict least-recently-used entries until the object total fits the
    budget; returns the evicted entries and compacts the index.
    @raise Invalid_argument on a negative budget. *)

val verify : t -> (entry * (unit, string) result) list
(** Check every object, in LRU order, without touching counters or
    LRU state: the header and CRC, then the deep structural audit
    ([Csr.validate]) that the fast mmap read path deliberately skips.
    An object of another format version reports
    ["unsupported format version v"]. *)

val close : t -> unit
(** Flush and close the index channel. Further use raises
    [Sys_error]. *)
