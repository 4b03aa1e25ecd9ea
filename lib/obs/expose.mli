(** Telemetry exposition: registry renderers (Prometheus text, JSON
    snapshot) and a unix-domain-socket listener serving them live.

    The listener speaks a one-command-per-connection line protocol:
    the client sends [metrics], [json], [series] or [ping] followed by
    a newline; the server writes the response body and closes (EOF is
    the framing). Every scrape command first takes a fresh
    {!Series.sample}, so attached consumers ([bin/sftop]) see current
    GC and RSS gauges even between background ticks. The grammar and
    a walkthrough live in [doc/OBSERVABILITY.md], "Live telemetry".

    The accept loop runs on a systhread with a select timeout: it
    shares the main domain's runtime lock, never opens capture frames
    and never emits trace events, so determinism guarantees hold
    unchanged with telemetry enabled. *)

(** {1 Renderers} *)

val sanitize : string -> string
(** Registry name → Prometheus metric name: every character outside
    [[a-zA-Z0-9_]] becomes ['_'], prefixed with ["sf_"]. *)

val render_prometheus_for : (string * Registry.metric) list -> string
(** Prometheus text exposition of an explicit metric list (the golden
    test renders a fixed list for byte-stable output): counters as
    [_total], timers as [_seconds_total] + [_count], set gauges
    verbatim, histograms as summaries with [quantile] labels and
    [_sum]/[_count]. Unset gauges are omitted. *)

(** {1 The listener} *)

type listener

val serve : ?backlog:int -> series:Series.t -> path:string -> unit -> listener
(** Bind a unix-domain stream socket at [path] and start answering on
    a background thread. A stale socket left by a dead run is
    unlinked and reclaimed; anything else at [path] — a regular file,
    or a socket another live process still answers on — is refused.
    Also ignores SIGPIPE process-wide, so a client disconnecting
    mid-response surfaces as EPIPE (treated as client-gone) rather
    than killing the monitored run.
    @raise Invalid_argument on an empty path, one at or beyond the
    [sun_path] limit (104 chars), or an unreclaimable [path]; socket
    errors propagate as [Unix.Unix_error]. *)

val stop : listener -> unit
(** Stop the accept loop (prompt: the loop polls at 200 ms), join its
    thread, close and unlink the socket. Idempotent. *)

val scrapes : listener -> int
(** Scrape commands served so far ([ping] and unknown commands do not
    count). This exact count feeds the [telemetry_scrapes] manifest
    extra; the [telemetry.scrapes] registry counter tracks the same
    quantity as a metric. *)

(** {1 Manifest extras} *)

val manifest_extras : ?listener:listener -> unit -> (string * string) list
(** [[("rss_peak_bytes", …); ("telemetry_scrapes", …)]] as raw-JSON
    pairs for [Export.write_manifest_checked ~extra] — present in every
    manifest (zero scrapes without a listener) so shape checks can
    assert them unconditionally. *)
