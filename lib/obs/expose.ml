(* Telemetry exposition: renderers for the registry (Prometheus text,
   JSON snapshot) and a unix-domain-socket listener serving them to an
   attached consumer (bin/sftop, curl --unix-socket, a Prometheus
   node_exporter textfile shim).

   Protocol (deliberately minimal, hand-rolled like every other format
   in this repo): the client connects, sends one command line —

     metrics   Prometheus text exposition of the registry
     json      one-line JSON snapshot {"ts":..,"scrapes":..,"metrics":{..}}
     series    the Series ring dump (Series.to_json)
     ping      liveness check, answers "pong"

   — and the server writes the response body and closes the
   connection (EOF is the framing).  Every scrape command first takes
   a fresh Series sample, so attaching consumers see current GC/RSS
   gauges even between background ticks.

   The accept loop runs on a systhread with a select timeout, so
   [stop] is prompt and the main domain's compute is undisturbed (the
   listener shares the runtime lock; request handling is microseconds
   of formatting).  Like the Series sampler it never opens capture
   frames and never emits trace events. *)

let c_scrapes = Registry.counter "telemetry.scrapes"

(* --- Prometheus text exposition ------------------------------------ *)

(* metric-name grammar: [a-zA-Z_:][a-zA-Z0-9_:]*; we map everything
   else to '_' and prefix "sf_" (which also fixes leading digits) *)
let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    name
  |> ( ^ ) "sf_"

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" f

let render_prometheus_for metrics =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, m) ->
      let base = sanitize name in
      match m with
      | Registry.Counter c ->
        line "# TYPE %s_total counter" base;
        line "%s_total %d" base (Counter.value c)
      | Registry.Timer t ->
        line "# TYPE %s_seconds_total counter" base;
        line "%s_seconds_total %s" base (prom_float (Timer.total_s t));
        line "# TYPE %s_count counter" base;
        line "%s_count %d" base (Timer.count t)
      | Registry.Gauge g ->
        if Registry.gauge_set g then begin
          line "# TYPE %s gauge" base;
          line "%s %s" base (prom_float (Registry.gauge_value g))
        end
      | Registry.Histo h ->
        line "# TYPE %s summary" base;
        if Histo.count h > 0 then begin
          line {|%s{quantile="0.5"} %s|} base (prom_float (Histo.quantile h 0.5));
          line {|%s{quantile="0.95"} %s|} base (prom_float (Histo.quantile h 0.95));
          line {|%s{quantile="0.99"} %s|} base (prom_float (Histo.quantile h 0.99));
          line {|%s{quantile="0.999"} %s|} base (prom_float (Histo.quantile h 0.999))
        end;
        line "%s_sum %s" base (prom_float (Histo.sum h));
        line "%s_count %d" base (Histo.count h))
    metrics;
  Buffer.contents b

let render_prometheus () = render_prometheus_for (Registry.all ())

let render_json ~scrapes () =
  Printf.sprintf {|{"ts":%s,"scrapes":%d,"metrics":%s}|}
    (Export.json_float (Timer.now_s ()))
    scrapes (Export.metrics_json ())

(* --- the socket listener ------------------------------------------- *)

type listener = {
  l_path : string;
  l_fd : Unix.file_descr;
  l_series : Series.t;
  mutable l_scrapes : int;
  mutable l_running : bool;
  mutable l_thread : Thread.t option;
}

let scrapes l = l.l_scrapes

let first_line s =
  match String.index_opt s '\n' with Some i -> Some (String.sub s 0 i) | None -> None

(* Read until the first newline (the command line), EOF, 2 s of
   silence, or 4096 bytes — whichever first. The silence is a receive
   timeout, not a select: select cannot watch a descriptor at or above
   FD_SETSIZE (1024), and a process holding that many (a full sfserve)
   is just the one worth scraping. *)
let read_command fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
  let acc = Buffer.create 32 in
  let chunk = Bytes.create 256 in
  let rec go () =
    match first_line (Buffer.contents acc) with
    | Some line -> Some line
    | None ->
      if Buffer.length acc > 4096 then None
      else (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length acc > 0 then Some (Buffer.contents acc) else None
        | n ->
          Buffer.add_subbytes acc chunk 0 n;
          go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None)
  in
  Option.map String.trim (go ())

let handle_client l client =
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      match read_command client with
      | None -> ()
      | Some cmd -> (
        let scrape render =
          Series.sample l.l_series;
          l.l_scrapes <- l.l_scrapes + 1;
          Counter.incr c_scrapes;
          render ()
        in
        let body =
          match cmd with
          | "ping" -> "pong\n"
          | "metrics" -> scrape render_prometheus
          | "json" -> scrape (fun () -> render_json ~scrapes:l.l_scrapes () ^ "\n")
          | "series" -> scrape (fun () -> Series.to_json l.l_series ^ "\n")
          | other -> Printf.sprintf "err unknown command %S\n" other
        in
        (* A client that disconnects mid-response (sftop killed
           between scrapes, a reader closing during a large [series]
           dump) surfaces here as EPIPE/ECONNRESET — client-gone, not
           an error.  SIGPIPE is ignored in [serve]; with the default
           disposition the signal would terminate the monitored
           process before EPIPE could be raised. *)
        try Frame.write_all client body
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()))

let accept_loop l =
  while l.l_running do
    match Unix.select [ l.l_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept l.l_fd with
      | exception Unix.Unix_error _ -> ()
      | client, _ -> ( try handle_client l client with _ -> ()))
  done

let serve ?(backlog = 8) ~series ~path () =
  (* Sock.bind_unix also ignores SIGPIPE process-wide: a departing
     client must never kill the run it monitors — writing a response
     to a half-closed socket raises EPIPE (handled in [handle_client]). *)
  let fd = Sock.bind_unix ~backlog ~who:"Expose.serve" path in
  let l =
    { l_path = path; l_fd = fd; l_series = series; l_scrapes = 0; l_running = true; l_thread = None }
  in
  l.l_thread <- Some (Thread.create accept_loop l);
  l

let stop l =
  match l.l_thread with
  | None -> ()
  | Some th ->
    l.l_running <- false;
    Thread.join th;
    l.l_thread <- None;
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink l.l_path with Unix.Unix_error _ -> ())

(* --- manifest extras ----------------------------------------------- *)

(* raw JSON values for Export.write_manifest_checked ~extra; present in every
   manifest whether or not telemetry was on, so the shape checks can
   assert them unconditionally *)
let manifest_extras ?listener () =
  [
    ("rss_peak_bytes", string_of_int (Resource.rss_peak_bytes ()));
    ( "telemetry_scrapes",
      string_of_int (match listener with Some l -> l.l_scrapes | None -> 0) );
  ]
