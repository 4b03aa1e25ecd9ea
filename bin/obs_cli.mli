(** Shared observability flags and session bracket of the command-line
    tools ([--metrics], [--no-obs], [--trace], [--progress],
    [--jobs]).

    Every tool splices {!term} into its cmdliner term and wraps its
    body in {!with_session}, which sets the {!Sf_parallel.Pool}
    default job count from [--jobs], attaches the [--trace] sinks
    (file exporter plus an armed {!Sf_obs.Flight} recorder), dumps the
    recorder when the body raises or a strategy gives up, finalises
    the trace file, and writes the [--metrics] manifest last — with
    [jobs], [wall_s], [cpu_s], [parallel_speedup] (CPU over wall,
    summed across domains), [rss_peak_bytes] and [telemetry_scrapes]
    among the manifest extras. With [--telemetry] it also brackets the
    run with a live {!Sf_obs.Series} sampler and {!Sf_obs.Expose}
    socket listener, stopped before the manifest is written; with
    [--trace] the armed flight recorder additionally dumps on
    [SIGUSR1]. *)

type t = {
  metrics : string option;  (** [--metrics FILE]: write an obs.json manifest *)
  no_obs : bool;  (** [--no-obs]: kill switch for all instrumentation *)
  trace : string option;
      (** [--trace FILE]: event trace; [.jsonl] streams, else Perfetto *)
  progress : bool;  (** [--progress]: live progress on stderr *)
  jobs : int option;
      (** [--jobs N]: worker domains for the parallel sections;
          [None] keeps {!Sf_parallel.Pool.default_jobs} *)
  corpus : string option;
      (** [--corpus DIR]: content-addressed graph corpus cache
          (doc/STORAGE.md); falls back to [SCALEFREE_CORPUS], else no
          cache. When active, the manifest extras record [corpus_dir],
          [corpus_entries] and [corpus_bytes]. *)
  telemetry : string option;
      (** [--telemetry PATH]: serve live telemetry on a unix-domain
          socket at [PATH] while the run is in flight ([sftop PATH]
          attaches; doc/OBSERVABILITY.md, "Live telemetry"). Falls
          back to [SCALEFREE_TELEMETRY], else off; skipped with a
          warning under [--no-obs]. *)
  telemetry_tick : float;
      (** [--telemetry-tick SECONDS] (default 0.5): background
          sampling period of the telemetry time series. *)
}

val term : t Cmdliner.Term.t

val endpoint_conv : Sf_serve.Wire.endpoint Cmdliner.Arg.conv
(** One endpoint syntax for every flag that names a serving socket
    ([sfserve --listen], [sfload SERVER]): [unix:PATH],
    [tcp:HOST:PORT], or a bare filesystem path (a unix socket, like
    [--telemetry]). *)

val with_session :
  t ->
  ?process:string ->
  ?extra:(unit -> (string * string) list) ->
  tool:string ->
  seed:int ->
  mode:string ->
  (unit -> int) ->
  int
(** [with_session t ~tool ~seed ~mode body] brackets [body] with sink
    attach/detach and manifest writing; returns [body]'s exit code,
    forced to nonzero if the manifest write fails. [extra] is
    evaluated after [body] returns — manifest extras are typically
    computed inside the body. [process] names this process's track in
    a Perfetto [--trace] export (default ["main"]) — what makes the
    per-tool traces of one fleet mergeable with [sftop timeline].
    Re-raises whatever [body] raises, after dumping the flight
    recorder and closing the sinks (a partial trace file is still
    written) — except a {!load_graph} failure, which is printed as
    one [TOOL: PATH: message] line on stderr and ends the session
    normally with exit code 1. *)

val load_graph : string -> Sf_graph.Ugraph.t
(** [load_graph path] is {!Sf_store.Csr_codec.load_ugraph}, the loader
    behind every [--graph] flag. A file it cannot use — a missing
    path, an unsupported SFGB version, a malformed edge list — is bad
    input, not a bug: called inside {!with_session}, the body stops
    and the tool exits 1 with a one-line message. Only the loader call
    is guarded, so any other exception keeps its backtrace. *)
