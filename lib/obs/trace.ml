(* The process-wide structured event stream.  Peer of the metric
   registry: metrics aggregate, the stream remembers the sequence.
   Emission is gated on (a) at least one attached sink and (b) the
   registry kill switch, so an untraced or --no-obs run pays a single
   branch per site. *)

type arg = Int of int | Float of float | Str of string | Bool of bool | Ints of int list

type kind = Begin | End | Instant | Counter of float

type event = {
  seq : int;
  ts : float;
  name : string;
  kind : kind;
  args : (string * arg) list;
}

type sink = { descr : string; emit : event -> unit; close : unit -> unit }

type id = int

(* sinks kept in attach order; attach/detach are rare, emission is hot *)
let sinks : (id * sink) list ref = ref []
let next_id = ref 0
let seq = ref 0

let active () = (match !sinks with [] -> false | _ :: _ -> true) && Registry.enabled ()

let attach sink =
  incr next_id;
  let id = !next_id in
  sinks := !sinks @ [ (id, sink) ];
  id

let detach id =
  match List.assoc_opt id !sinks with
  | None -> ()
  | Some sink ->
    sinks := List.filter (fun (i, _) -> i <> id) !sinks;
    sink.close ()

let attached () = List.length !sinks

(* Domain-local capture (see Counter for the scheme): while a capture
   is open, events are buffered with a zero sequence number; the pool
   replays buffers at the join barrier in task-index order, and only
   that replay touches the global counter and the sinks — so sinks
   remain single-domain and sequence numbers stay gap-free and
   deterministic for a fixed seed. *)

type frame = event list ref option

let slot : event list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let capturing () = Option.is_some !(Domain.DLS.get slot)

let capture_begin () : frame =
  let s = Domain.DLS.get slot in
  let prev = !s in
  s := Some (ref []);
  prev

let capture_end (prev : frame) : event list =
  let s = Domain.DLS.get slot in
  let events = match !s with Some buf -> List.rev !buf | None -> [] in
  s := prev;
  events

let dispatch e =
  incr seq;
  let e = { e with seq = !seq } in
  List.iter (fun (_, s) -> s.emit e) !sinks

let emit ?ts ?(args = []) name kind =
  if active () then begin
    let ts = match ts with Some t -> t | None -> Timer.now_s () in
    let e = { seq = 0; ts; name; kind; args } in
    match !(Domain.DLS.get slot) with
    | Some buf -> buf := e :: !buf
    | None -> dispatch e
  end

let replay events =
  match !(Domain.DLS.get slot) with
  | Some buf -> List.iter (fun e -> buf := e :: !buf) events
  | None -> if active () then List.iter dispatch events

let instant ?args name = emit ?args name Instant
let counter ?args name v = emit ?args name (Counter v)

let kind_tag = function Begin -> "B" | End -> "E" | Instant -> "i" | Counter _ -> "C"

let arg_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f
  | Str s -> s
  | Bool b -> string_of_bool b
  | Ints l -> String.concat ";" (List.map string_of_int l)

let event_to_line e =
  let args =
    match e.args with
    | [] -> ""
    | args ->
      " "
      ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_to_string v)) args)
  in
  let value = match e.kind with Counter v -> Printf.sprintf " value=%.9g" v | _ -> "" in
  Printf.sprintf "#%d %.6f %s %s%s%s" e.seq e.ts (kind_tag e.kind) e.name value args
