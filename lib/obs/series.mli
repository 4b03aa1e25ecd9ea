(** Time-series rings over the registry: the live-telemetry substrate.

    A collection {!t} holds one fixed-capacity ring of
    [(timestamp, value)] points per {e series} — one scalar facet of
    one registered metric. {!sample} walks {!Registry.all} and pushes
    the current value of every facet:

    - a counter [name] → series [name] (the count);
    - a timer [name] → [name.total_s] and [name.count];
    - a gauge [name] → [name], only once it has been set;
    - a histogram [name] → [name.count], [name.sum] and (when
      non-empty) [name.p50], [name.p95], [name.p99], [name.p999].

    {!start} spawns a background sampler thread ticking every
    [tick_s]; it also refreshes the GC and RSS gauges
    ({!Gc_sample.sample}[ ~trace:false]) so a long single-phase run
    still gets fresh memory figures. The sampler is a systhread
    sharing the main domain's runtime lock and domain-local storage:
    it never opens capture frames and never emits trace events, so
    parallel determinism (doc/PARALLELISM.md) is unaffected. Under an
    open capture (a domain draining pool tasks) it reads the {e
    shared} accumulators, which only advance at join barriers — live
    counters can plateau between barriers; this is documented
    behaviour, not data loss.

    Derived statistics (rates, EWMAs, windowed quantiles) are pure
    functions over a ring's retained points, usable in-process; remote
    consumers ([bin/sftop]) derive the same quantities from the
    socket's [series] dump. *)

(** {1 Rings} *)

type ring

val ring_create : capacity:int -> ring
(** @raise Invalid_argument if [capacity < 1]. *)

val ring_push : ring -> ts:float -> v:float -> unit

val ring_length : ring -> int
(** Points currently retained (at most capacity). *)

val ring_seen : ring -> int
(** Points ever pushed. *)

val ring_points : ring -> (float * float) list
(** Retained points, oldest first. *)

val ring_last : ring -> (float * float) option

(** {1 Derived statistics} *)

val rate : ring -> window_s:float -> float option
(** Mean increase per second over the points whose timestamps lie
    within [window_s] of the newest point: [(v_n - v_0) / (t_n -
    t_0)]. [None] with fewer than two points in the window or a
    non-increasing clock. *)

val ewma : ring -> tau_s:float -> float option
(** Time-decayed exponentially-weighted moving average over all
    retained points: each step folds the next point in with weight
    [1 - exp (-dt / tau_s)], so irregular tick spacing is handled
    exactly. [None] on an empty ring.
    @raise Invalid_argument if [tau_s <= 0]. *)

val window_quantile : ring -> window_s:float -> float -> float option
(** Nearest-rank quantile of the values within the window. [None] on
    an empty window. @raise Invalid_argument if [q] outside [[0,1]]. *)

(** {1 The collection} *)

type t

val create : ?capacity:int -> ?tick_s:float -> unit -> t
(** [capacity] (default 600) points per ring; [tick_s] (default 0.5)
    the background sampler period — 600 × 0.5 s = a five-minute
    window. @raise Invalid_argument on [capacity < 1] or
    [tick_s <= 0]. *)

val sample : t -> unit
(** Take one snapshot now: refresh GC/RSS gauges (without trace
    events) and push every metric facet. Safe from any thread; a
    no-op while the registry is disabled. *)

val start : t -> unit
(** Take an initial snapshot and spawn the sampler thread. Idempotent
    while running. *)

val stop : t -> unit
(** Stop and join the sampler, then take a final snapshot so the last
    partial tick is covered. Idempotent. *)

val running : t -> bool
val tick_s : t -> float

val samples : t -> int
(** Snapshots taken so far (manual + ticked). *)

val names : t -> string list
(** All series names seen so far, sorted. *)

val with_ring : t -> string -> (ring -> 'a) -> 'a option
(** Run a reader under the collection lock; the only way to reach a
    collection's rings. Derived statistics walk ring arrays the
    sampler thread mutates, so readers must hold the lock for the
    whole read — which is why there is no [find] returning a bare
    [ring]. [f] must not call back into this collection. *)

val to_json : t -> string
(** The full dump served for the socket [series] command:
    [{"tick_s":…,"samples":…,"series":{name:{"seen":…,"points":[[ts,v],…]},…}}]. *)
