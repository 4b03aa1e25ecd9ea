(* 512 KiB instead of the runtime's 2 MiB, for the main domain of a
   long-running process: sfserve's select loop and, at --jobs 1, every
   search; sffabric's coordinator and each worker's trials. A request
   or a trial allocates tens of kilobytes, and every minor-heap page
   that allocation reaches stays resident: serving a 4096-vertex graph
   at --jobs 1, sfserve peaked at 9.1 MB of RSS with the default and
   7.6 MB with this size, at about the same request rate. *)
let shrink () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 65536 }
