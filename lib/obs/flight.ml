(* Bounded in-memory recorder: the last [capacity] events, overwriting
   the oldest.  The trigger is checked after the event is stored, so a
   dump always includes the event that fired it. *)

type trigger = { pred : Trace.event -> bool; action : t -> unit }

and t = {
  capacity : int;
  buf : Trace.event option array;
  mutable seen : int;
  mutable armed : trigger option;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Flight.create: need capacity >= 1";
  { capacity; buf = Array.make capacity None; seen = 0; armed = None }

let seen t = t.seen
let length t = min t.seen t.capacity
let dropped t = max 0 (t.seen - t.capacity)

let record t e =
  t.buf.(t.seen mod t.capacity) <- Some e;
  t.seen <- t.seen + 1;
  match t.armed with
  | Some { pred; action } when pred e ->
    (* disarm before acting so a dump that emits events cannot recurse *)
    t.armed <- None;
    action t
  | _ -> ()

let sink t =
  { Trace.descr = "flight"; emit = record t; close = (fun () -> ()) }

let events t =
  let n = length t in
  let first = t.seen - n in
  List.init n (fun i ->
      match t.buf.((first + i) mod t.capacity) with Some e -> e | None -> assert false)

let arm t ~trigger ~action = t.armed <- Some { pred = trigger; action }

let dump ?(out = stderr) t =
  Printf.fprintf out "--- flight recorder: last %d of %d event(s)%s ---\n" (length t) t.seen
    (if dropped t > 0 then Printf.sprintf " (%d overwritten)" (dropped t) else "");
  List.iter (fun e -> output_string out (Trace.event_to_line e ^ "\n")) (events t);
  Printf.fprintf out "--- end flight recorder ---\n%!"

(* SIGUSR1 → dump: lets a stuck giant run be diagnosed from outside
   (kill -USR1 <pid>) without killing it.  Formatting a few hundred
   lines from a signal handler is not async-signal-safe in the C
   sense, but OCaml handlers run at safepoints in normal OCaml
   context, so channel output is fine here. *)
let install_sigusr1 ?out t =
  match Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump ?out t)) with
  | _prev -> true
  | exception (Invalid_argument _ | Sys_error _) ->
    (* platform without sigusr1 — the feature degrades to absent *)
    false
