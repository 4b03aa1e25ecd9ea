(** Trace sinks that persist the event stream: a streaming JSONL form
    and the Chrome trace-event / Perfetto JSON form.

    {b JSONL} writes one JSON object per event as it arrives — the
    form to tail, grep, or feed to external analysis; nothing is
    buffered beyond the channel.

    {b Perfetto} buffers rendered records and writes one
    [{"traceEvents": [...]}] document on close, loadable directly in
    {{:https://ui.perfetto.dev}ui.perfetto.dev} (or
    [chrome://tracing]). [Begin]/[End] pairs are matched by nesting
    into complete ([{"ph":"X"}]) slices, instants become ["i"] and
    counter samples ["C"] records; timestamps are microseconds
    relative to the first event. A run that raised mid-span has its
    unmatched [Begin]s closed at the last seen timestamp.

    {b Multi-process tracks.} An event whose args carry
    [("proc", Str name)] renders on a named track: each distinct name
    is assigned a Chrome "pid" in first-seen order and announced with
    a ["ph":"M"] [process_name] metadata record; span nesting is
    matched per track. Untagged events land on the default track
    (pid 1), whose name is the [?process] argument. This is the merged
    fleet timeline: the coordinator replays relayed worker events
    tagged [worker-N], and {!perfetto_of_tracks} merges per-process
    files (server, load) recorded separately.

    The harnesses pick the form from the [--trace FILE] extension:
    [.jsonl] streams, anything else (canonically [.json]) is
    Perfetto. *)

val tag : proc:string -> Trace.event list -> Trace.event list
(** Add [("proc", Str proc)] to every event that does not already carry
    a track tag (events relayed with their own tag keep it). *)

val event_jsonl : Trace.event -> string
(** One event as a single-line JSON object:
    [{"seq", "ts", "ph", "name", "value"?, "args"?}]. *)

val perfetto_json : ?process:string -> Trace.event list -> string
(** Pure rendering of an event list (e.g. a {!Flight} buffer) as a
    complete trace-event document. [process] names the default track
    (default ["main"]). *)

val perfetto_sink : ?process:string -> (string -> unit) -> Trace.sink
(** Buffering Perfetto sink; the callback receives the finished
    document exactly once, on detach. *)

val merge_tracks : (string * Trace.event list) list -> Trace.event list
(** Sequence-ordered merge of per-process event lists: each track is
    sorted by its own sequence numbers (every process counts its
    events independently), tagged with its track name, then merged by
    timestamp with a stable sort so equal stamps keep track order.
    Feeding the result to {!perfetto_json} yields one timeline with
    one named track per process. *)

val perfetto_of_tracks :
  ?process:string -> (string * Trace.event list) list -> string
(** [perfetto_json ?process (merge_tracks tracks)]. *)

val attach_file : ?process:string -> string -> Trace.id
(** The [--trace FILE] flag: attach a sink writing to [path]
    (truncating). A [.jsonl] path streams one {!event_jsonl} line per
    event; any other path gets the {!perfetto_sink} document when the
    sink is detached. [process] names the default Perfetto track (the
    tool: [server], [load], [coordinator]...). *)
