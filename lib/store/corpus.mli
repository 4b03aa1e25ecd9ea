(** The ambient corpus: one process-global optional {!Cache} that the
    instance makers of {!Sf_core.Searchability} consult, configured
    once by the harness from [--corpus DIR] or [SCALEFREE_CORPUS]
    (bin/obs_cli, bench). Nothing is cached until a directory is
    configured — with the corpus unset, {!instance} is the identity
    wrapper and a grid run is byte-identical to one built before this
    module existed.

    {b Determinism contract} (doc/STORAGE.md): for a configured
    corpus, a warm run performs zero generator calls for cached
    coordinates and produces search results byte-identical to the
    cold run at any [--jobs] value. The mechanism: the cache key is
    the generation coordinate including the trial stream's full rng
    state, the stored entry carries the post-generation rng state, and
    a hit restores it — so downstream draws (source selection, search
    randomness) consume exactly the stream they would have after
    generating. *)

val configure : ?dir:string -> unit -> unit
(** [configure ~dir ()] opens (creating if needed) the cache at [dir];
    without [dir], falls back to the [SCALEFREE_CORPUS] environment
    variable, else leaves the corpus unset. Call before spawning
    worker domains. *)

val set_cache : Cache.t option -> unit
(** Install an already-open cache (tests), or [None] to disable. *)

val cache : unit -> Cache.t option

val instance :
  gen:string ->
  params:(string * string) list ->
  (Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int) ->
  Sf_prng.Rng.t ->
  int ->
  Sf_graph.Ugraph.t * int
(** [instance ~gen ~params make rng n] is [make rng n] routed through
    the corpus: a hit opens the stored graph, restores the stream
    and skips [make]; a miss (or corrupt entry) runs [make] and stores
    graph, target and post-generation stream. [params] must render
    every parameter [make] closes over, in a fixed order — two
    distinct generators must never share a coordinate.

    Objects are stored in the version-2 container and open as
    mmap-backed CSR views without a decode pass ({!Csr_codec}). The
    address is the generation coordinate, not the container: an
    object left by the retired version-1 codec reads as corrupt, is
    regenerated and re-stored as version 2, with the same result a
    cold run produces. *)
