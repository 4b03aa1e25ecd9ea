(** The sharded grid: a searchability measurement plus a persisted
    partition of its flattened task range, the unit the fabric
    distributes (doc/FABRIC.md).

    The plan is written to [DIR/grid.sfg] (binary [scalefree.grid/1],
    strict codec) when a run starts and reloaded verbatim on resume:
    shard boundaries never move once trials have been checkpointed —
    resuming with a different worker count redistributes {e shards},
    not tasks. Everything downstream is a pure function of the plan,
    which is the byte-identity argument: workers run
    {!Sf_core.Searchability.run_grid_task} over their slice, the
    coordinator concatenates slices in task order and aggregates with
    the same fold {!Sf_core.Searchability.measure} uses. *)

type spec = {
  gs_model : string;  (** mori | cooper-frieze | config *)
  gs_p : float;
  gs_m : int;
  gs_alpha : float;
  gs_exponent : float;
  gs_sizes : int list;
  gs_strategies : string list;
  gs_trials : int;
  gs_metric : [ `Neighbor | `Target ];
  gs_source : [ `Oldest | `Random ];
  gs_budget_mul : int;
  gs_budget_add : int;  (** request budget: [mul*n + add] *)
  gs_seed : int;
}

type plan = { p_spec : spec; p_shards : (int * int) array }
(** Contiguous [lo, hi) slices tiling [0, n_tasks) in order. *)

val core_spec : spec -> Sf_core.Searchability.spec
val make_of_spec : spec -> Sf_prng.Rng.t -> int -> Sf_graph.Ugraph.t * int
val strategies_of_spec : spec -> Sf_search.Strategy.t list
val n_tasks : spec -> int

val rng_token : spec -> int64
(** {!Sf_prng.Rng.state_fingerprint} of the seed's master stream —
    stored in every checkpoint so a resume against the wrong seed is
    refused. *)

val make_plan : shards:int -> spec -> plan
(** Validate and partition [0, n_tasks) into [min shards n_tasks]
    near-equal contiguous slices.
    @raise Invalid_argument on [shards < 1], an unknown model or
    strategy, empty sizes/strategies, or the
    {!Sf_core.Searchability.validate_grid} failures. *)

(** {1 Plan persistence} *)

val encode : plan -> string
val decode : string -> plan
(** Strict ([scalefree.grid/1]): magic, version, CRC-32 tail, and the
    shards must tile the task range exactly.
    @raise Sf_store.Codec_error.Error otherwise. *)

val write_plan : dir:string -> plan -> unit
(** Create [dir] (and [dir/shards]) and atomically write [grid.sfg]
    plus the human-readable [grid.json] mirror. *)

val load_plan : dir:string -> plan * int32
(** The decoded plan and the CRC-32 of the plan file's bytes (the
    value checkpoints bind to). @raise Failure when no plan exists,
    [Sf_store.Codec_error.Error] on corruption. *)

val plan_crc : plan -> int32
(** CRC-32 of {!encode} — equals the [load_plan] value for a plan
    written by {!write_plan}. *)

(** {1 Directory layout} *)

val plan_path : string -> string
val json_path : string -> string
val shard_path : string -> int -> string
val csv_path : string -> string
val manifest_path : string -> string
val sock_path : string -> string
(** [DIR/fabric.sock] — the coordinator's default control socket. *)

val mkdir_p : string -> unit

(** {1 Deterministic outputs} *)

val write_outputs :
  dir:string ->
  plan ->
  outcomes:(float * bool * bool) array ->
  counters:(string * int) list ->
  Sf_core.Searchability.point list
(** Aggregate the full outcome array and atomically write
    [measure.csv] and [manifest.json]. Both are byte-identical at any
    worker count and across any crash/resume history: the manifest's
    counter block keeps only the [search.*] family (generation and
    cache counters legitimately differ between crash histories when a
    corpus cache is shared). Returns the points. *)
