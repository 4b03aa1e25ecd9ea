(** The long-lived search-query daemon ([bin/sfserve]): a select-driven
    event loop answering {!Wire} frames on unix-domain and TCP
    sockets, with every batch of in-flight search requests dealt
    across an {!Sf_parallel.Pool} domain pool.

    {b Determinism.} A search reply is a pure function of the server
    configuration and the request: request [id] selects the split
    stream [Rng.split_at master id] off a master stream that is never
    advanced, so replies are byte-identical across runs, connection
    interleavings, batch boundaries and [--jobs] counts
    (doc/SERVING.md). Identical requests with identical ids get
    identical replies — a client wanting independent trials varies the
    id.

    {b Robustness.} A client disconnecting mid-frame loses only its
    own connection. A well-framed but mutilated payload is answered
    with an [Error] frame (code [bad-frame]) and the connection
    survives. A frame whose declared length is outside the legal range
    poisons the byte stream: the server answers once and closes that
    connection. The [serve.*] metric catalogue is in
    doc/OBSERVABILITY.md. *)

type config = {
  graph : Sf_graph.Ugraph.t;
  seed : int;  (** master seed of the per-request reply streams *)
  default_target : int;  (** for requests that name no target *)
  default_budget : int option;
      (** per-request oracle budget when the request names none;
          [None] falls through to the runner default ([4n + 64]) *)
  max_payload : int;  (** per-frame payload cap *)
  jobs : int option;  (** domain-pool size; [None] = pool default *)
}

val config :
  ?default_target:int ->
  ?default_budget:int ->
  ?max_payload:int ->
  ?jobs:int ->
  seed:int ->
  Sf_graph.Ugraph.t ->
  config
(** Validated constructor: the default target defaults to vertex [n]
    (the paper's hard case — the newest vertex).
    @raise Invalid_argument on an empty graph, an out-of-range
    default target, or a non-positive default budget. *)

type t

val create : ?backlog:int -> config -> listen:Wire.endpoint list -> t
(** Bind every endpoint (unix paths go through
    {!Sf_obs.Sock.bind_unix}: stale sockets reclaimed, live
    sockets and non-socket paths refused), spawn the domain pool, and
    ignore SIGPIPE process-wide. The loop itself starts in {!run}.
    @raise Invalid_argument on an empty endpoint list or an
    unclaimable unix path; socket errors propagate as
    [Unix.Unix_error]. *)

val run : ?tick:float -> t -> unit
(** The blocking event loop: accept, read, decode, batch, reply —
    until {!stop} is called (from a signal handler or another thread)
    or a client sends [Shutdown] (acknowledged, then the loop exits
    once every reply is flushed). On exit: connections closed,
    listeners closed, unix socket paths unlinked, pool shut down.
    [tick] (default 0.05 s) is the select timeout bounding stop
    latency. *)

val stop : t -> unit
(** Ask the loop to exit; safe from a signal handler. *)

val endpoints : t -> Wire.endpoint list
val served : t -> int  (** search requests answered *)

val protocol_errors : t -> int
(** Mutilated frames/payloads seen (the [serve.protocol_errors]
    counter tracks the same quantity as a metric). *)

val connections_accepted : t -> int

val strategy_names : t -> string list
(** The request-addressable strategy portfolio, in dispatch order. *)
