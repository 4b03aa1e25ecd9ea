(** The worker-telemetry relay codec — the body of a
    {!Proto.Telemetry} message.

    A batch is the observability delta a worker accumulated between
    two checkpoint writes: its buffered trace events (worker-local
    sequence numbers intact — the coordinator re-sequences on replay)
    and the counter deltas the checkpoint just persisted. Workers
    relay {e after} the checkpoint write, so relayed totals never
    exceed checkpointed totals under any crash history and the
    coordinator can reconcile exact counts from checkpoints at the
    end of the run ({!Coordinator}).

    Same codec discipline as {!Proto} and the serve wire format: version
    byte, varint sizes, canonical encoding, strict decode with a
    trailing-bytes check (the enclosing frame carries the CRC-32).
    Grammar in doc/OBSERVABILITY.md. *)

type batch = {
  r_events : Sf_obs.Trace.event list;
  r_counters : (string * int) list;  (** non-negative deltas *)
}

val encode : batch -> string
(** Canonical bytes for a batch.
    @raise Invalid_argument on a negative counter delta. *)

val decode : string -> batch
(** @raise Sf_store.Codec_error.Error on truncation, version
    mismatch, unknown tags, or trailing bytes. *)

val assign_body : trace:bool -> string
(** What the coordinator puts in a grid-runner [Assign] body:
    ["trace:1"] to ask the worker to relay telemetry, [""] (the
    pre-relay grammar) to run silent. *)

val assign_wants_trace : string -> bool
(** Worker-side test of an [Assign] body. *)
