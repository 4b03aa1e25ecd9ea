(** The minor-heap size of the long-running binaries ([sfserve],
    [sffabric] and its workers). *)

val shrink : unit -> unit
(** Sets the calling domain's minor heap to 512 KiB instead of the
    runtime's 2 MiB. Call it first thing in [main]; domains spawned
    later keep the default. *)
