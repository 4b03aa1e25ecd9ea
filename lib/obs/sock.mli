(** Unix-domain listener lifecycle, shared by every long-lived socket
    in the repo — the telemetry socket ({!Expose}), the [lib/serve]
    request socket and the [lib/fabric] coordinator socket all claim
    their filesystem path through the same discipline, so they behave
    identically around crashes: a stale socket left by a dead process
    is reclaimed, a live one is refused, anything that is not a socket
    is never touched. *)

val stream : Unix.socket_domain -> (Unix.file_descr -> unit) -> Unix.file_descr
(** A fresh stream socket after [setup] ran on it; if [setup] raises,
    the socket is closed and the exception re-raised. *)

val bind_unix : ?backlog:int -> who:string -> string -> Unix.file_descr
(** Claim [path], then socket + bind + listen (default backlog 8),
    returning the listening descriptor. Claiming makes the path safe to
    bind: a stale socket left by a dead process is unlinked and
    reclaimed; anything else — a regular file, a directory, or a
    socket another live process still answers on (checked with a
    connect probe) — is refused. [who] prefixes the error messages.
    Also ignores SIGPIPE process-wide, so a client disconnecting
    mid-response surfaces as EPIPE rather than killing the process.
    The caller owns the descriptor and the path (close and unlink on
    shutdown).
    @raise Invalid_argument on an empty path, one at or beyond the
    [sun_path] limit (104 chars), or an unreclaimable [path]; socket
    errors propagate as [Unix.Unix_error]. *)

val connect_unix : string -> Unix.file_descr
(** Connect a fresh stream socket to a unix-domain listener; the
    descriptor is closed again if the connect fails.
    @raise Unix.Unix_error when nothing answers at the path. *)
