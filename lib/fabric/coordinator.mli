(** The coordinator: owns a fabric run directory, drives the
    {!Swarm} over whatever shards are not yet complete, and merges the
    checkpoints into the final measure CSV and manifest
    (doc/FABRIC.md).

    {b The determinism contract.} The merge blits shard outcome slices
    into one array at their task offsets — reconstructing exactly the
    outcome sequence a sequential {!Sf_core.Searchability.measure}
    produces — and aggregates with the same fold. Worker count, crash
    history, fault injection and assignment order change how fast the
    array fills, never its contents: [measure.csv] and
    [manifest.json] are byte-identical across all of them. *)

type shard_status = {
  st_shard : int;
  st_lo : int;
  st_hi : int;
  st_done : int;  (** trials persisted, out of [hi - lo] *)
  st_state : [ `Missing | `Partial | `Complete ];
}

val default_shards : workers:int -> Grid.spec -> int
(** [min (max 1 workers * 4) n_tasks], floored at one — enough slack
    for work stealing without checkpoint-file noise. *)

val prepare : dir:string -> shards:int -> Grid.spec -> Grid.plan * int32
(** Validate, partition, create the run directory and persist the
    plan. @raise Failure when [dir] already holds a plan — a started
    run is resumed, never re-planned. *)

val load : dir:string -> Grid.plan * int32
(** The persisted plan and its file CRC (what checkpoints bind to). *)

val status : dir:string -> Grid.plan * int32 -> shard_status list
val render_status : Grid.plan -> shard_status list -> string

val pending : dir:string -> grid_crc:int32 -> Grid.plan -> int list
(** Shards without a complete checkpoint, largest remaining
    {!Grid.work} first (tasks [c_next..hi) of a partial checkpoint),
    ties in index order — the order [run] assigns them in.
    @raise Failure on a checkpoint from a different grid or seed. *)

val merge :
  dir:string ->
  grid_crc:int32 ->
  Grid.plan ->
  (float * bool * bool) array * (string * int) list
(** The full task-order outcome array and summed counter deltas.
    @raise Failure while any shard is incomplete. *)

val run :
  dir:string ->
  workers:int ->
  ?ckpt_every:int ->
  ?fault_rate:float ->
  ?stop_after:int ->
  ?max_spawns:int ->
  ?sock_path:string ->
  ?trace:bool ->
  ?on_shard_progress:(shard:int -> done_tasks:int -> total:int -> unit) ->
  spawn:(sock_path:string -> int) ->
  Grid.plan * int32 ->
  [ `Complete of Sf_core.Searchability.point list * Swarm.report
  | `Stopped_early of Swarm.report ]
(** Run every pending shard and, on completion, merge and write the
    outputs. [workers = 0] runs shards in-process through the same
    runner, checkpoints and merge (no sockets, [fault_rate] forced to
    0); [workers > 0] forks via [spawn] (given the control socket
    path) and drives the {!Swarm}. [stop_after k] completes [k] shards
    then SIGKILLs the rest — the controlled crash for tests and CI;
    the merge is skipped and [`Stopped_early] returned. [max_spawns]
    defaults generously under fault injection (each checkpoint
    boundary is an at-most-once kill point). In distributed mode the
    merged counter deltas are folded into this process's registry so
    live telemetry reports grid totals.

    [trace] asks each worker (via the {!Relay} flag in the [Assign]
    body) to relay its buffered [fabric.*] trace events and counter
    deltas after every checkpoint write. Relayed events replay into
    this process's trace stream tagged with a per-worker track name
    (["worker-1"], ... in first-seen pid order), so a Perfetto export
    shows one named track per process; relayed counters apply live,
    and the final merge adds only the checkpointed-but-never-relayed
    gap — merged totals, [measure.csv] and [manifest.json] are
    byte-identical with tracing on or off. [on_shard_progress] fires
    on every worker progress message with that shard's cumulative
    count — what [sffabric] renders as its consolidated progress
    line.

    @raise Invalid_argument on [workers < 0] or [fault_rate] outside
    [\[0, 1)]; [Failure] on foreign checkpoints or the spawn limit. *)
