(** Resumable shard checkpoints — the [scalefree.ckpt/1] format
    (doc/FABRIC.md).

    One file per shard, rewritten atomically (tmp+rename, the
    {!Sf_store} discipline) every few trials: a worker killed at any
    instant leaves either the previous checkpoint or the next, never a
    torn file. Strict decode in the {!Sf_store.Csr_codec} style — magic,
    version byte, varint fields, trailing CRC-32; every mutilated
    input raises {!Sf_store.Codec_error.Error}.

    A checkpoint binds itself to its grid by the plan file's CRC and a
    fingerprint of the master rng state, so resuming against the wrong
    grid or seed fails loudly instead of merging foreign outcomes. *)

type t = {
  c_grid_crc : int32;  (** CRC-32 of the grid plan file this shard belongs to *)
  c_shard : int;
  c_lo : int;
  c_hi : int;  (** task range [lo, hi) in the flattened grid *)
  c_rng_token : int64;  (** {!Sf_prng.Rng.state_fingerprint} of the master stream *)
  c_next : int;  (** first task not yet persisted; [lo <= next <= hi] *)
  c_outcomes : (float * bool * bool) array;
      (** [(cost, truncated, gave_up)] for tasks [lo..next-1], in task order *)
  c_counters : (string * int) list;
      (** registry counter deltas attributable to exactly the persisted
          outcomes, sorted by name; [fabric.*] metrics excluded — they
          measure the machinery and differ across crash histories *)
}

val complete : t -> bool
(** [c_next = c_hi]. *)

val encode : t -> string
(** Canonical bytes. @raise Invalid_argument when the outcome count
    disagrees with [next - lo]. *)

val decode : string -> t
(** @raise Sf_store.Codec_error.Error on any malformed input. *)

val write : path:string -> t -> unit
(** Atomic: encode to [path.tmp.PID], then rename over [path]. *)

val load : path:string -> t
(** @raise Sf_store.Codec_error.Error on corruption, [Sys_error] when
    unreadable. *)

val load_opt : path:string -> t option
(** [None] when the file does not exist; corruption still raises —
    a checkpoint that decodes wrongly must surface, not silently
    restart the shard. *)

(** {1 Counter bookkeeping}

    The helpers the worker and coordinator share to account
    observability alongside outcomes. *)

val counters_snapshot : unit -> (string * int) list
(** Current values of every registry counter except [fabric.*], in
    registry (name) order. *)

val counters_delta :
  base:(string * int) list -> (string * int) list -> (string * int) list
(** Positive differences [now - base] (a name missing from [base]
    counts from zero — metrics register lazily). *)

val counters_merge :
  (string * int) list -> (string * int) list -> (string * int) list
(** Pointwise sum, sorted by name. *)
