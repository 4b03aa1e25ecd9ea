(** Exporters: the registry and span forest rendered as JSON and CSV,
    and the per-run manifest ([obs.json]).

    A manifest is the machine-readable record of one run — seed, mode,
    wall time per phase (the {!Span} forest), and the value of every
    registered metric — written next to a run's human-readable tables
    so that regressions can be tracked across commits by diffing
    manifests. CI checks the manifest of [sfexp run all --quick]
    against the committed [bench/baseline_quick.json] (names only, no
    timing assertions). The schema is documented in [doc/OBSERVABILITY.md].

    JSON is rendered by hand, and read back with {!Json}: manifests
    are flat, machine-written documents, and this library must not
    grow a dependency for them. *)

(** {1 Rendering} *)

val metrics_json : unit -> string
(** The registry as one JSON object: name → [{"kind": ..., ...}].
    Counters carry [value]; timers [count], [total_s], [mean_s];
    gauges [value], [set]; histograms [count], [sum], [min], [max],
    [p50]/[p90]/[p95]/[p99]/[p999] and the non-empty [buckets] as
    [[upper_bound, count]] pairs. *)

val metrics_csv : unit -> string
(** The registry as CSV (header [name,kind,value,count,mean]); the
    [value] column is the counter value, timer total seconds,
    gauge value, or histogram sum. Field quoting is
    {!Sf_stats.Csv.escape_field} (RFC 4180), so metric names containing
    commas or quotes round-trip through {!Sf_stats.Csv.parse}. *)

val manifest_json :
  ?extra:(string * string) list -> tool:string -> seed:int -> mode:string -> unit -> string
(** The full run manifest. [extra] entries are [(key, raw_json)]
    pairs spliced verbatim into the top-level object — the caller is
    responsible for their JSON validity. *)

val write_manifest_checked :
  ?extra:(string * string) list ->
  tool:string ->
  seed:int ->
  mode:string ->
  path:string ->
  unit ->
  [ `Written | `Skipped_disabled | `Error of string ]
(** {!manifest_json} written to [path] (truncating), the harness entry
    point behind [--metrics FILE]. The path ["-"] writes the manifest
    to stdout instead — the [--metrics -] mode of the tools, which lets
    a caller capture the manifest without a temp file. When the registry
    is disabled ([--no-obs]) the manifest would be a near-empty husk —
    every value zero — so instead of writing one this warns on stderr
    and returns [`Skipped_disabled]. I/O failures come back as
    [`Error] rather than raising. *)

val json_string : string -> string
(** Escape and quote one string — for building [extra] values. *)

val json_float : float -> string
(** A JSON number, or [null] for non-finite values. *)
