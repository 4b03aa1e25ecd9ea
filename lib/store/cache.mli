(** The content-addressed on-disk corpus cache.

    Layout under the cache directory:
    {v
    DIR/
      index.jsonl          one JSON object per line (append-only log)
      objects/<fp>.sfg     codec-encoded graphs, named by fingerprint
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
    truncated or fails the codec checksum — or whose index metadata is
    unusable — counts into [cache.corrupt], evicts the entry, and
    reports a miss: the caller regenerates and re-stores, and the run
    completes with the same results it would have produced cold
    (doc/STORAGE.md, determinism contract).

    {b Instrumentation.} [cache.hit], [cache.miss], [cache.evict],
    [cache.corrupt] counters, [cache.hit]/[cache.miss]/[cache.corrupt]
    trace instants, plus the [store.read_s]/[store.write_s] timers of
    {!Codec} underneath. All operations are serialised on an internal
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

val find : t -> Fingerprint.key -> (Sf_graph.Digraph.t * entry) option
(** Decoded graph plus metadata on a hit (refreshing its LRU
    position); [None] — after the counter and eviction bookkeeping
    described above — on a miss or a corrupt entry. *)

val add :
  t -> Fingerprint.key -> graph:Sf_graph.Digraph.t -> target:int -> rng_after:string -> unit
(** Store an object and append its index line. Re-adding a
    fingerprint overwrites the object and supersedes the line. *)

val find_ugraph : t -> Fingerprint.key -> (Sf_graph.Ugraph.t * entry) option
(** Container-agnostic {!find}: version-2 objects open as mmap-backed
    CSR graphs ({!Csr_codec.map_ugraph_file}, CRC verified), version-1
    objects decode and convert. Counters, LRU touch and
    corrupt-eviction behave exactly as in {!find}. *)

val add_ugraph :
  t ->
  Fingerprint.key ->
  graph:Sf_graph.Ugraph.t ->
  target:int ->
  rng_after:string ->
  format:[ `V1 | `V2 ] ->
  unit
(** Store in the chosen container. Both versions share the
    [<fp>.sfg] namespace — the version byte in the file, not the
    name, selects the read path — so gc and the index treat them
    uniformly. [`V1] is compact (varints, ~1–2 bytes/edge), [`V2] is
    mmap-readable (~12 bytes/edge); {!Corpus} picks by graph size. *)

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
(** Check every object against its checksum, in LRU order, without
    touching counters or LRU state. Version-1 objects are fully
    decoded; version-2 objects are CRC-verified and then put through
    the deep structural audit ([Csr.validate]) that the fast mmap
    read path deliberately skips. *)

val remove : t -> string -> bool
(** Remove one entry by fingerprint; [false] if absent. *)

val flush : t -> unit
(** Flush the index channel (for tests that reopen the directory). *)

val close : t -> unit
(** Flush and close the index channel. Further use raises
    [Sys_error]. *)
