(** The local-knowledge oracle: the only window a searching process has
    onto the graph (Section "Modeling the searching process" of the
    paper).

    The searcher starts knowing one vertex. At any time it knows a set
    of {e discovered} vertices, each with its identity, its degree and
    a list of incident {e edge handles} whose far endpoints are hidden
    until paid for. The two request types are exactly the paper's:

    - {b weak}: a request is a pair (discovered vertex [u], edge handle
      [e] incident to [u]); the answer is the identity of the far
      endpoint [v] of [e], which becomes discovered (degree + handles).
    - {b strong}: a request names a discovered vertex [u]; the answer
      is the list of [u]'s neighbours, each of which becomes
      discovered. (The paper phrases requests as naming a vertex
      {e adjacent to} a discovered one; the two formulations simulate
      each other within one request, and this one needs no bootstrap
      convention for the first step.)

    {b Information hiding.} Edge handles are opaque integers assigned
    in first-exposure order, and each discovered vertex's handle list
    is privately shuffled, so a strategy cannot read construction
    timestamps out of edge ids or list positions — it sees exactly what
    the paper's model allows, vertex identities included (identities
    are the whole point: the target is "the vertex named [t]"). The
    same physical edge carries the same handle at both endpoints, so a
    searcher that has discovered both endpoints can recognise the edge
    — also as in the paper, where the answer to a request includes the
    full incident-edge lists.

    The oracle also keeps the two score counters of the paper's
    complexity measure — requests made when the target was first
    discovered, and when a neighbour of the target was first discovered
    — which the experiment {e runner} reads after the fact; honest
    strategies never call these. *)

type vertex = int

type handle = int
(** Opaque public edge id; meaningful only through this interface. *)

type model = Weak | Strong

type t

val start :
  ?obfuscate:bool ->
  rng:Sf_prng.Rng.t ->
  model ->
  Sf_graph.Ugraph.t ->
  source:vertex ->
  target:vertex ->
  t
(** Fresh search instance; [source] is discovered at zero cost.
    [obfuscate] (default [true]) enables handle renaming and list
    shuffling; turn off only in tests that need to address physical
    edge ids. [rng] drives the shuffling only.

    The instance leases its search state from an arena that the
    calling domain reuses across queries: 4 bytes per vertex outside
    the GC heap, plus buffers that grow with what the search
    discovers — per discovered vertex its rank-indexed entries and
    its handles in one flat buffer, per public handle id its physical
    edge and an entry of the reverse map (a hash table), and one byte
    per public handle id up to the largest one paid for. Every buffer
    and the hash table's bucket array stay at their high-water size
    for the next query. With a free arena large enough for the graph,
    [start] costs O(deg target); otherwise it allocates a new one.
    @raise Invalid_argument if [source] or [target] is not a vertex. *)

val release : t -> unit
(** Ends the lease: the arena goes back to the calling domain, which
    keeps at most one free arena for the next {!start}. Before that,
    [release] clears what the query wrote: the marks of the target's
    closed neighbourhood and of every discovered vertex, the paid
    byte of each handle in the flat handle buffer (every paid handle
    is in it), and the reverse-map key of each public id the query
    handed out (the table is emptied key by key, never cleared or
    reset, so it keeps its size). That costs O(deg target + the
    summed degree of the discovered vertices), the order of the work
    the query already did: discovering a vertex exposed each of its
    handles. Call it once the last answer has been read (outcome,
    {!discovery_path}, ...). An instance that is never released is
    simply collected, with its arena, at the cost of a fresh arena per
    {!start}. After [release], every
    function of this module except [release] itself raises
    [Invalid_argument] on the instance; a second [release] is a
    no-op. Arrays from {!handles} are copies and stay valid. *)

(** {1 What the searcher may observe} *)

val model : t -> model
val n_vertices : t -> int
val target : t -> vertex
val source : t -> vertex
val requests : t -> int

val is_discovered : t -> vertex -> bool

val discovered_count : t -> int

val discovered_nth : t -> int -> vertex
(** Discovery sequence, [0 .. discovered_count - 1]; lets a strategy
    pull new discoveries incrementally. *)

val discovery_rank : t -> vertex -> int
(** The inverse of {!discovered_nth}: [discovered_nth t
    (discovery_rank t v) = v]. One load, so a strategy can keep
    per-vertex state in an array indexed by rank instead of a hash
    table; it reveals nothing a strategy could not compute from
    {!discovered_nth}. @raise Invalid_argument if undiscovered. *)

val degree : t -> vertex -> int
(** Observable degree of a {e discovered} vertex: the number of its
    handles (a self-loop contributes one). Two loads from the offset
    table. @raise Invalid_argument if undiscovered. *)

val handle : t -> vertex -> int -> handle
(** [handle t v i] is the [i]-th handle of discovered [v], [0 <= i <
    degree t v], in the vertex's (shuffled) list order; nothing is
    allocated. @raise Invalid_argument if [v] is undiscovered or [i]
    out of range. *)

val handles : t -> vertex -> handle array
(** All handles of a discovered vertex, in {!handle} order, as a
    {e fresh copy}: it allocates, so steppers read {!handle} instead.
    @raise Invalid_argument if undiscovered. *)

val handle_requested : t -> handle -> bool
(** Whether some past weak request already paid for this handle: a
    bounds check and one byte load. A handle no request could have
    paid for — negative, not yet exposed, or past the graph's edges —
    reads [false]. *)

val far_endpoint : t -> owner:vertex -> handle -> vertex
(** The endpoint of the handle's edge that is not [owner] ([owner]
    itself for a self-loop), once the searcher is in a position to
    know it — i.e. both endpoints are discovered (the handle then
    appears in both their lists). [0], which is no vertex, while
    either is unknown. Nothing is allocated.
    @raise Invalid_argument if the handle is unknown or [owner] is
    not an endpoint of its edge. *)

(** {1 Requests} *)

val request_weak : t -> owner:vertex -> handle -> vertex
(** One weak request; returns (and discovers) the far endpoint.
    Counts 1 even if the edge was already requested or recognisable.
    @raise Invalid_argument in the strong model, if [owner] is
    undiscovered, or if the handle is not incident to [owner]. *)

val request_strong : t -> vertex -> unit
(** One strong request on a discovered vertex; discovers all its
    neighbours. Those not yet discovered join the discovery sequence
    ({!discovered_nth}) in the vertex's incidence order, each once; a
    strategy that needs the neighbours themselves reads them through
    {!handle} and {!far_endpoint}.
    @raise Invalid_argument in the weak model or if undiscovered. *)

val is_explored : t -> vertex -> bool
(** Strong model: whether the vertex was already strong-requested. *)

(** {1 Discovery provenance}

    The paper's task is to find {e a path} to the target, not merely
    its name: every discovery is caused by a request at some known
    vertex, so the discovery tree yields a certified graph path from
    the source to anything discovered. *)

val discovery_parent : t -> vertex -> vertex option
(** The discovered vertex whose request revealed this one ([None] for
    the source). @raise Invalid_argument if undiscovered. *)

val discovery_path : t -> vertex -> vertex list
(** The source-to-vertex path through the discovery tree (source
    first). Every consecutive pair is an edge of the graph — the
    deliverable the paper's searcher owes.
    @raise Invalid_argument if undiscovered. *)

(** {1 The request event}

    Every paid request additionally emits one event named
    {!request_event_name} on the {!Sf_obs.Trace} stream (when a sink
    is attached and the registry enabled): the paper's complexity
    measure as a {e sequence}. Args: [index] (1-based request number),
    [kind] (["weak-edge"] | ["strong-vertex"]), [at] (the vertex the
    request addressed), [revealed] (vertices newly discovered, in
    discovery order), [discovered_total] (count after the request). *)

val request_event_name : string
(** ["search.request"]. *)

(** {1 Scoring — for the runner, not for strategies} *)

val target_found : t -> bool

val requests_when_found : t -> int option
(** Requests made when the target itself became discovered. [Some 0]
    if [source = target]. *)

val requests_when_neighbor : t -> int option
(** Requests made when the discovered set first touched the target's
    closed neighbourhood — the paper's lenient stopping rule. *)
