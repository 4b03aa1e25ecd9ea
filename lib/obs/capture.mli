(** The domain-local capture shared by every metric kind and the trace
    stream: one [Domain.DLS] slot that holds the open per-task buffer,
    if any.

    The raw cells of {!Counter}, {!Timer}, {!Histo}, {!Registry}'s
    gauges and the {!Trace} sinks are plain mutable state, not safe
    under concurrent update. {!Shard.capture} opens a buffer on the
    current domain; while it is open, every update resolves its cell
    to the target's private shadow in that buffer (made on first
    touch), and trace events are buffered instead of dispatched. With
    no buffer open, the cell is the target itself. Each primitive then
    runs one direct code path on the resolved cell, so sequential code
    pays one domain-local read per update and allocates nothing.
    {!Shard.merge} owns the merge rule of each kind.

    The cell and event types live here because the buffer holds them;
    the modules named above keep them abstract or re-export them. *)

type counter = { mutable n : int }
type timer = { mutable total : float; mutable count : int }

type histo = {
  counts : int array;  (** {!n_buckets} bucket counts *)
  stats : float array;  (** sum, min, max *)
  mutable h_count : int;
}

type gauge = { mutable g_value : float; mutable g_set : bool }

(** Documented at {!Trace}. *)

type arg = Int of int | Float of float | Str of string | Bool of bool | Ints of int list
type kind = Begin | End | Instant | Counter of float
type event = { seq : int; ts : float; name : string; kind : kind; args : (string * arg) list }

type buf = {
  mutable counters : (counter * counter) list;
  mutable timers : (timer * timer) list;
  mutable histos : (histo * histo) list;
  mutable gauges : (gauge * gauge) list;
      (** (target, shadow) pairs, most recently first-touched first *)
  mutable events : event list;  (** buffered events, newest first *)
}

val slot : buf option ref Domain.DLS.key
(** The open buffer of the current domain; [None] outside any
    capture. Read by each update directly, so the direct path makes
    no extra call. *)

val capturing : unit -> bool
(** True while a capture is open on the current domain. *)

val empty : unit -> buf

val n_buckets : int

val new_histo : unit -> histo
(** An empty histogram: all buckets zero, sum [0.], min and max
    [nan]. *)

(** {1 Shadows}

    [counter b t] is the shadow of [t] in [b], made and recorded on
    first touch; likewise for the other kinds. *)

val counter : buf -> counter -> counter
val timer : buf -> timer -> timer
val histo : buf -> histo -> histo
val gauge : buf -> gauge -> gauge
