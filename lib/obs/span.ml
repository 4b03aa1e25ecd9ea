type t = { span_name : string; duration : float; kids : t list }

(* open spans, innermost first; completed children accumulate in
   reverse completion order *)
type open_span = { o_name : string; o_start : float; mutable o_kids : t list }

let stack : open_span list ref = ref []
let completed_roots : t list ref = ref []

let enter name =
  Gc_sample.sample ();
  Trace.emit name Trace.Begin;
  stack := { o_name = name; o_start = Timer.now_s (); o_kids = [] } :: !stack

let leave () =
  match !stack with
  | [] -> ()
  | o :: rest ->
    stack := rest;
    let span =
      {
        span_name = o.o_name;
        duration = Float.max 0. (Timer.now_s () -. o.o_start);
        kids = List.rev o.o_kids;
      }
    in
    (match rest with
    | [] -> completed_roots := span :: !completed_roots
    | parent :: _ -> parent.o_kids <- span :: parent.o_kids);
    Trace.emit o.o_name Trace.End;
    Gc_sample.sample ()

let with_span name f =
  if not (Registry.enabled ()) then f ()
  else if Capture.capturing () then begin
    (* inside a parallel task: the span forest (global stack) belongs
       to the pool's caller, so only the stream sees this phase — the
       Begin/End pair is buffered and replayed at the join barrier,
       keeping Perfetto slices without racing on the stack *)
    Trace.emit name Trace.Begin;
    Fun.protect ~finally:(fun () -> Trace.emit name Trace.End) f
  end
  else begin
    enter name;
    Fun.protect ~finally:leave f
  end

let roots () = List.rev !completed_roots
let name t = t.span_name
let duration_s t = t.duration
let children t = t.kids

let reset () =
  stack := [];
  completed_roots := []
