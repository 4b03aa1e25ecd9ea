type metric =
  | Counter of Counter.t
  | Timer of Timer.t
  | Histo of Histo.t
  | Gauge of gauge

and gauge = Capture.gauge

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

let histo name =
  find_or_add name
    ~make:(fun () ->
      let h = Histo.create () in
      (Histo h, h))
    ~cast:(function Histo h -> Some h | _ -> None)

let gauge name =
  find_or_add name
    ~make:(fun () ->
      let g = { Capture.g_value = 0.; g_set = false } in
      (Gauge g, g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let set_gauge g v =
  let c = match !(Domain.DLS.get Capture.slot) with None -> g | Some b -> Capture.gauge b g in
  c.g_value <- v;
  c.g_set <- true

let gauge_value (g : gauge) = g.g_value
let gauge_set (g : gauge) = g.g_set

let names () = locked (fun () -> List.sort compare !insertion_order)

let all () =
  locked (fun () ->
      List.map
        (fun name -> (name, Hashtbl.find table name))
        (List.sort compare !insertion_order))
