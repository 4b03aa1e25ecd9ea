type metric =
  | Counter of Counter.t
  | Timer of Timer.t
  | Histo of Histo.t
  | Gauge of gauge

and gauge = { mutable g_value : float; mutable g_set : bool }

let table : (string, metric) Hashtbl.t = Hashtbl.create 64
let insertion_order : string list ref = ref []

(* The table is mostly populated at module initialisation (single
   domain), but a few sites register lazily from hot paths — e.g. the
   per-strategy request counters in Sf_search.Runner — which under the
   Pool can happen on a worker domain.  One mutex around every table
   access keeps get-or-create atomic; metric *updates* don't take it
   (they go through the capture layer instead). *)
let table_lock = Mutex.create ()

let locked f =
  Mutex.lock table_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_lock) f

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let kind_name = function
  | Counter _ -> "counter"
  | Timer _ -> "timer"
  | Histo _ -> "histogram"
  | Gauge _ -> "gauge"

let check_name name =
  if name = "" then invalid_arg "Registry: empty metric name";
  String.iter
    (fun c ->
      match c with
      (* commas and quotes are allowed because both exporters escape
         them (JSON via json_string, CSV via Sf_stats.Csv.escape_field);
         whitespace and control characters stay out *)
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '/' | ',' | '"' -> ()
      | _ -> invalid_arg (Printf.sprintf "Registry: bad character %C in metric name %S" c name))
    name

let find_or_add name ~make ~cast =
  check_name name;
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> (
        match cast m with
        | Some x -> x
        | None ->
          invalid_arg
            (Printf.sprintf "Registry: metric %S already registered as a %s" name (kind_name m)))
      | None ->
        let m, x = make () in
        Hashtbl.replace table name m;
        insertion_order := name :: !insertion_order;
        x)

let counter name =
  find_or_add name
    ~make:(fun () ->
      let c = Counter.create () in
      (Counter c, c))
    ~cast:(function Counter c -> Some c | _ -> None)

let timer name =
  find_or_add name
    ~make:(fun () ->
      let t = Timer.create () in
      (Timer t, t))
    ~cast:(function Timer t -> Some t | _ -> None)

let histo ?base name =
  find_or_add name
    ~make:(fun () ->
      let h = Histo.create ?base () in
      (Histo h, h))
    ~cast:(function Histo h -> Some h | _ -> None)

let gauge name =
  find_or_add name
    ~make:(fun () ->
      let g = { g_value = 0.; g_set = false } in
      (Gauge g, g))
    ~cast:(function Gauge g -> Some g | _ -> None)

(* Domain-local gauge capture, same scheme as Counter: a capture
   remembers the last value set per gauge; the join-barrier replay
   applies them in task order, so "last write wins" is decided by task
   index, not scheduling. *)

type gauge_delta = { gd_target : gauge; mutable gd_value : float }
type gauge_deltas = gauge_delta list
type gauge_frame = gauge_delta list ref option

let gauge_slot : gauge_delta list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let gauge_capture_begin () : gauge_frame =
  let s = Domain.DLS.get gauge_slot in
  let prev = !s in
  s := Some (ref []);
  prev

let gauge_capture_end (prev : gauge_frame) : gauge_deltas =
  let s = Domain.DLS.get gauge_slot in
  let ds = match !s with Some buf -> List.rev !buf | None -> [] in
  s := prev;
  ds

let set_gauge g v =
  match !(Domain.DLS.get gauge_slot) with
  | None ->
    g.g_value <- v;
    g.g_set <- true
  | Some buf ->
    let rec set = function
      | [] -> buf := { gd_target = g; gd_value = v } :: !buf
      | cell :: _ when cell.gd_target == g -> cell.gd_value <- v
      | _ :: rest -> set rest
    in
    set !buf

let apply_gauges ds = List.iter (fun d -> set_gauge d.gd_target d.gd_value) ds

let gauge_value g = g.g_value
let gauge_set g = g.g_set

let names () = locked (fun () -> List.sort compare !insertion_order)
let find name = locked (fun () -> Hashtbl.find_opt table name)

let all () =
  locked (fun () ->
      List.map
        (fun name -> (name, Hashtbl.find table name))
        (List.sort compare !insertion_order))

let clear () =
  locked (fun () ->
      Hashtbl.reset table;
      insertion_order := [])
