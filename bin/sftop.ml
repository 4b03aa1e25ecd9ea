(* sftop: attach to a running tool's --telemetry socket and watch it
   work (doc/OBSERVABILITY.md, "Live telemetry").

   Examples:
     sftop /tmp/sf.sock                      live dashboard, 1 s refresh
     sftop once /tmp/sf.sock                 one snapshot, plain text
     sftop record /tmp/sf.sock --out run.jsonl --count 30
     sftop plot run.jsonl --series gen.mori.vertices

   The dashboard derives counter rates from consecutive snapshots; the
   socket protocol itself is one command line per connection ([json],
   [metrics], [series], [ping]) answered with a body and EOF, so
   everything here also works from a shell:
     printf 'metrics\n' | socat - UNIX-CONNECT:/tmp/sf.sock *)

open Cmdliner
module Json = Sf_perf.Json

(* ------------------------------------------------------------------ *)
(* socket client                                                       *)
(* ------------------------------------------------------------------ *)

let read_to_eof fd =
  let acc = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents acc
    | n ->
      Buffer.add_subbytes acc chunk 0 n;
      go ()
  in
  go ()

let scrape path command =
  let fd = Sf_obs.Sock.connect_unix path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Sf_obs.Frame.write_all fd (command ^ "\n");
      read_to_eof fd)

(* ------------------------------------------------------------------ *)
(* snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snap = {
  s_ts : float;
  s_scrapes : int;
  s_metrics : (string * Json.t) list; (* name -> metric object *)
}

let snap_of_json doc =
  match Json.parse doc with
  | Error msg -> Error msg
  | Ok j -> (
    let ts = Option.bind (Json.member "ts" j) Json.as_num in
    let scrapes = Option.bind (Json.member "scrapes" j) Json.as_int in
    match Json.member "metrics" j with
    | Some (Json.Obj fields) ->
      Ok
        {
          s_ts = Option.value ~default:0. ts;
          s_scrapes = Option.value ~default:0 scrapes;
          s_metrics = fields;
        }
    | _ -> Error "snapshot has no metrics object")

let take_snap path =
  match snap_of_json (scrape path "json") with
  | Ok s -> s
  | Error msg -> failwith ("malformed snapshot from " ^ path ^ ": " ^ msg)

let kind_of m = Option.bind (Json.member "kind" m) Json.as_str
let num field m = Option.bind (Json.member field m) Json.as_num

(* "gen.mori.vertices" -> that metric's natural scalar;
   "gen.mori.build_s.total_s" -> an explicit facet of the base metric *)
let series_value metrics name =
  let value_of m = function
    | "" -> (
      match kind_of m with
      | Some ("counter" | "gauge") -> num "value" m
      | Some "timer" -> num "total_s" m
      | Some "histogram" -> num "count" m
      | _ -> None)
    | facet -> num facet m
  in
  match List.assoc_opt name metrics with
  | Some m -> value_of m ""
  | None -> (
    match String.rindex_opt name '.' with
    | None -> None
    | Some i ->
      let base = String.sub name 0 i in
      let facet = String.sub name (i + 1) (String.length name - i - 1) in
      Option.bind (List.assoc_opt base metrics) (fun m -> value_of m facet))

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let fmt_bytes b =
  if b >= 1024. *. 1024. *. 1024. then Printf.sprintf "%.2f GiB" (b /. (1024. *. 1024. *. 1024.))
  else if b >= 1024. *. 1024. then Printf.sprintf "%.1f MiB" (b /. (1024. *. 1024.))
  else if b >= 1024. then Printf.sprintf "%.1f KiB" (b /. 1024.)
  else Printf.sprintf "%.0f B" b

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let fmt_seconds s =
  if s >= 1. then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let is_bytes_gauge name =
  (* suffix convention: *.bytes / *_bytes gauges render human-readable *)
  let n = String.length name in
  (n >= 6 && String.sub name (n - 6) 6 = "_bytes") || (n >= 6 && String.sub name (n - 6) 6 = ".bytes")

let table aligns headers rows =
  if rows = [] then "" else Sf_stats.Table.render ~aligns ~headers ~rows ()

(* prev is the previous snapshot when we have one: rates come from the
   (prev, cur) pair *)
let render_dashboard ?prev ~path cur =
  let b = Buffer.create 4096 in
  let dt = match prev with None -> 0. | Some p -> cur.s_ts -. p.s_ts in
  Buffer.add_string b
    (Printf.sprintf "sftop - %s  t=%.1fs  scrapes=%d%s\n\n" path cur.s_ts cur.s_scrapes
       (if dt > 0. then Printf.sprintf "  (rates over %.1fs)" dt else ""));
  let rate name v =
    match prev with
    | Some p when dt > 0. -> (
      match series_value p.s_metrics name with
      | Some v0 -> Printf.sprintf "%.1f/s" ((v -. v0) /. dt)
      | None -> "-")
    | _ -> "-"
  in
  let counters, timers, gauges, histos =
    List.fold_left
      (fun (cs, ts, gs, hs) (name, m) ->
        match kind_of m with
        | Some "counter" -> ((name, m) :: cs, ts, gs, hs)
        | Some "timer" -> (cs, (name, m) :: ts, gs, hs)
        | Some "gauge" -> (cs, ts, (name, m) :: gs, hs)
        | Some "histogram" -> (cs, ts, gs, (name, m) :: hs)
        | _ -> (cs, ts, gs, hs))
      ([], [], [], []) cur.s_metrics
  in
  let rev_rows f l = List.rev_map f l in
  let open Sf_stats.Table in
  (* gauges first: GC and RSS are the vital signs *)
  Buffer.add_string b
    (table [ Left; Right ] [ "gauge"; "value" ]
       (rev_rows
          (fun (name, m) ->
            let v = Option.value ~default:Float.nan (num "value" m) in
            [ name; (if is_bytes_gauge name then fmt_bytes v else fmt_num v) ])
          (List.filter
             (fun (_, m) -> Option.bind (Json.member "set" m) (function Json.Bool x -> Some x | _ -> None) <> Some false)
             gauges)));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (table [ Left; Right; Right ] [ "counter"; "value"; "rate" ]
       (rev_rows
          (fun (name, m) ->
            let v = Option.value ~default:0. (num "value" m) in
            [ name; fmt_num v; rate name v ])
          (List.filter (fun (_, m) -> num "value" m <> Some 0.) counters)));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (table [ Left; Right; Right; Right; Right ]
       [ "timer"; "count"; "total"; "mean"; "rate" ]
       (rev_rows
          (fun (name, m) ->
            let count = Option.value ~default:0. (num "count" m) in
            let total = Option.value ~default:0. (num "total_s" m) in
            [
              name;
              fmt_num count;
              fmt_seconds total;
              fmt_seconds (Option.value ~default:0. (num "mean_s" m));
              rate (name ^ ".count") count;
            ])
          (List.filter (fun (_, m) -> num "count" m <> Some 0.) timers)));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (table [ Left; Right; Right; Right; Right; Right ]
       [ "histogram"; "count"; "p50"; "p95"; "p99"; "p999" ]
       (rev_rows
          (fun (name, m) ->
            let q f = match num f m with Some v -> fmt_num v | None -> "-" in
            [ name; fmt_num (Option.value ~default:0. (num "count" m)); q "p50"; q "p95"; q "p99"; q "p999" ])
          (List.filter (fun (_, m) -> num "count" m <> Some 0.) histos)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* fleet: several sockets, one dashboard                               *)
(* ------------------------------------------------------------------ *)

(* Rows carry a proc column (the socket's basename) and sort by metric
   name first, so the same metric from every process sits together —
   the aggregate view of a serving fleet or a fabric run. *)
let render_fleet ?prev snaps =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "sftop fleet - %d process(es)\n" (List.length snaps));
  List.iter
    (fun (label, path, s) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %s  t=%.1fs  scrapes=%d\n" label path s.s_ts s.s_scrapes))
    snaps;
  Buffer.add_char b '\n';
  let rate label name v =
    match prev with
    | Some prevs when List.mem_assoc label prevs -> (
      let p = List.assoc label prevs in
      let cur = List.find (fun (l, _, _) -> l = label) snaps in
      let _, _, c = cur in
      let dt = c.s_ts -. p.s_ts in
      if dt <= 0. then "-"
      else
        match series_value p.s_metrics name with
        | Some v0 -> Printf.sprintf "%.1f/s" ((v -. v0) /. dt)
        | None -> "-")
    | _ -> "-"
  in
  let rows_of kind_wanted =
    List.concat_map
      (fun (label, _, s) ->
        List.filter_map
          (fun (name, m) ->
            if kind_of m = Some kind_wanted then Some (name, label, m) else None)
          s.s_metrics)
      snaps
    |> List.sort (fun (a, la, _) (b, lb, _) -> compare (a, la) (b, lb))
  in
  let open Sf_stats.Table in
  Buffer.add_string b
    (table [ Left; Left; Right ] [ "gauge"; "proc"; "value" ]
       (List.filter_map
          (fun (name, label, m) ->
            match num "value" m with
            | Some v -> Some [ name; label; (if is_bytes_gauge name then fmt_bytes v else fmt_num v) ]
            | None -> None)
          (rows_of "gauge")));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (table [ Left; Left; Right; Right ] [ "counter"; "proc"; "value"; "rate" ]
       (List.filter_map
          (fun (name, label, m) ->
            match num "value" m with
            | Some v when v <> 0. -> Some [ name; label; fmt_num v; rate label name v ]
            | _ -> None)
          (rows_of "counter")));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (table [ Left; Left; Right; Right; Right ]
       [ "timer"; "proc"; "count"; "total"; "mean" ]
       (List.filter_map
          (fun (name, label, m) ->
            match num "count" m with
            | Some c when c <> 0. ->
              Some
                [
                  name; label; fmt_num c;
                  fmt_seconds (Option.value ~default:0. (num "total_s" m));
                  fmt_seconds (Option.value ~default:0. (num "mean_s" m));
                ]
            | _ -> None)
          (rows_of "timer")));
  Buffer.add_char b '\n';
  Buffer.add_string b
    (table [ Left; Left; Right; Right; Right; Right; Right ]
       [ "histogram"; "proc"; "count"; "p50"; "p95"; "p99"; "p999" ]
       (List.filter_map
          (fun (name, label, m) ->
            let q f = match num f m with Some v -> fmt_num v | None -> "-" in
            match num "count" m with
            | Some c when c <> 0. ->
              Some [ name; label; fmt_num c; q "p50"; q "p95"; q "p99"; q "p999" ]
            | _ -> None)
          (rows_of "histogram")));
  Buffer.contents b

(* short, unique labels: the socket basename, disambiguated by index
   when two paths share one *)
let fleet_labels paths =
  let bases = List.map Filename.basename paths in
  List.mapi
    (fun i (path, base) ->
      let dup = List.length (List.filter (( = ) base) bases) > 1 in
      ((if dup then Printf.sprintf "%s#%d" base (i + 1) else base), path))
    (List.combine paths bases)

(* ------------------------------------------------------------------ *)
(* modes                                                               *)
(* ------------------------------------------------------------------ *)

(* The server going away mid-watch is the expected way a session ends:
   the socket is unlinked (ENOENT) or stops being answered
   (ECONNREFUSED), or drops us mid-scrape (ECONNRESET/EPIPE). Anything
   else — notably a malformed-snapshot parse failure — is a real error
   and must not be reported as a clean finish. *)
let server_gone = function
  | Unix.Unix_error
      ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    true
  | _ -> false

let connect_failed path e =
  Printf.eprintf "sftop: cannot attach to %s: %s\n(is the tool running with --telemetry %s?)\n"
    path (Printexc.to_string e) path;
  1

let once path =
  match take_snap path with
  | snap ->
    print_string (render_dashboard ~path snap);
    0
  | exception e -> connect_failed path e

let watch path interval =
  if interval <= 0. then failwith "--interval: must be > 0";
  match take_snap path with
  | exception e -> connect_failed path e
  | first ->
    let clear = "\027[H\027[2J" in
    print_string (clear ^ render_dashboard ~path first);
    flush stdout;
    let rec loop prev =
      Unix.sleepf interval;
      match take_snap path with
      | exception e when server_gone e ->
        Printf.printf "\nsftop: %s closed (run finished); detaching.\n" path;
        0
      | exception e ->
        Printf.eprintf "\nsftop: error scraping %s: %s\n" path (Printexc.to_string e);
        1
      | cur ->
        print_string (clear ^ render_dashboard ~prev ~path cur);
        flush stdout;
        loop cur
    in
    loop first

let record path out count interval =
  if interval <= 0. then failwith "--interval: must be > 0";
  if count < 1 then failwith "--count: must be >= 1";
  let oc =
    if out = "-" then stdout else open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 out
  in
  let finally () = if out <> "-" then close_out oc in
  Fun.protect ~finally (fun () ->
      let taken = ref 0 in
      (try
         for i = 1 to count do
           if i > 1 then Unix.sleepf interval;
           let line = String.trim (scrape path "json") in
           output_string oc (line ^ "\n");
           flush oc;
           incr taken;
           Printf.eprintf "scrape %d/%d\n%!" i count
         done
       with e ->
         Printf.eprintf "sftop: %s while recording from %s\n" (Printexc.to_string e) path);
      if !taken = 0 then connect_failed path (Failure "no scrapes recorded")
      else begin
        if out <> "-" then
          Printf.eprintf "recorded %d scrape(s) to %s\n" !taken out;
        if !taken = count then 0 else 1
      end)

let fleet paths once interval =
  if interval <= 0. then failwith "--interval: must be > 0";
  let labelled = fleet_labels paths in
  let take_all ~strict =
    List.filter_map
      (fun (label, path) ->
        match take_snap path with
        | s -> Some (label, path, s)
        | exception e when server_gone e && not strict -> None
        | exception e ->
          if strict then (
            Printf.eprintf "sftop fleet: cannot scrape %s: %s\n" path
              (Printexc.to_string e);
            failwith "fleet scrape failed")
          else raise e)
      labelled
  in
  if once then begin
    let snaps = take_all ~strict:true in
    print_string (render_fleet snaps);
    0
  end
  else begin
    let clear = "\027[H\027[2J" in
    let rec loop prev =
      let snaps = take_all ~strict:false in
      if snaps = [] then begin
        Printf.printf "\nsftop fleet: every socket closed (runs finished); detaching.\n";
        0
      end
      else begin
        print_string (clear ^ render_fleet ?prev snaps);
        flush stdout;
        Unix.sleepf interval;
        loop (Some (List.map (fun (l, _, s) -> (l, s)) snaps))
      end
    in
    match take_all ~strict:true with
    | exception e -> connect_failed (String.concat " " paths) e
    | first ->
      print_string (clear ^ render_fleet first);
      flush stdout;
      Unix.sleepf interval;
      loop (Some (List.map (fun (l, _, s) -> (l, s)) first))
  end

(* ------------------------------------------------------------------ *)
(* timeline: merge per-process .jsonl traces into one Perfetto file    *)
(* ------------------------------------------------------------------ *)

module Trace = Sf_obs.Trace

(* read back what Trace_export.event_jsonl wrote; integral numbers
   re-enter as Int (the jsonl form does not distinguish) *)
let event_of_jsonl ~file line =
  match Json.parse line with
  | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  | Ok j ->
    let str k = Option.bind (Json.member k j) Json.as_str in
    let n k = Option.bind (Json.member k j) Json.as_num in
    let name = match str "name" with Some s -> s | None -> failwith (file ^ ": event without name") in
    let kind =
      match str "ph" with
      | Some "B" -> Trace.Begin
      | Some "E" -> Trace.End
      | Some "i" -> Trace.Instant
      | Some "C" -> Trace.Counter (Option.value ~default:0. (n "value"))
      | Some ph -> failwith (Printf.sprintf "%s: unknown phase %S" file ph)
      | None -> failwith (file ^ ": event without ph")
    in
    let args =
      match Json.member "args" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Num x when Float.is_integer x && Float.abs x < 1e15 ->
              Some (k, Trace.Int (int_of_float x))
            | Json.Num x -> Some (k, Trace.Float x)
            | Json.Str s -> Some (k, Trace.Str s)
            | Json.Bool b -> Some (k, Trace.Bool b)
            | Json.Arr l -> Some (k, Trace.Ints (List.filter_map Json.as_int l))
            | Json.Null | Json.Obj _ -> None)
          fields
      | _ -> []
    in
    {
      Trace.seq = Option.value ~default:0 (Option.bind (Json.member "seq" j) Json.as_int);
      ts = Option.value ~default:0. (n "ts");
      name;
      kind;
      args;
    }

let read_jsonl_events file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let acc = ref [] in
      (try
         while true do
           let l = String.trim (input_line ic) in
           if l <> "" then acc := event_of_jsonl ~file l :: !acc
         done
       with End_of_file -> ());
      List.rev !acc)

let parse_track_spec s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> failwith (Printf.sprintf "track %S: expected NAME=FILE.jsonl" s)

let timeline specs out =
  let tracks =
    List.map
      (fun spec ->
        let name, file = parse_track_spec spec in
        (name, read_jsonl_events file))
      specs
  in
  let doc = Sf_obs.Trace_export.perfetto_of_tracks tracks in
  if out = "-" then print_string doc
  else begin
    let oc = open_out out in
    output_string oc doc;
    close_out oc;
    Printf.printf "wrote merged timeline (%d tracks, %d events) to %s\n"
      (List.length tracks)
      (List.fold_left (fun n (_, evs) -> n + List.length evs) 0 tracks)
      out
  end;
  0

let plot file series_names width height =
  let ic = open_in file in
  let lines = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let l = String.trim (input_line ic) in
          if l <> "" then lines := l :: !lines
        done
      with End_of_file -> ());
  let snaps =
    List.rev_map
      (fun l -> match snap_of_json l with Ok s -> s | Error msg -> failwith (file ^ ": " ^ msg))
      !lines
  in
  if snaps = [] then failwith (file ^ ": no scrapes");
  let t0 = (List.hd snaps).s_ts in
  let series =
    List.mapi
      (fun i name ->
        {
          Sf_stats.Plot.label = name;
          glyph = Sf_stats.Plot.default_glyphs.(i mod Array.length Sf_stats.Plot.default_glyphs);
          points =
            List.filter_map
              (fun s ->
                Option.map (fun v -> (s.s_ts -. t0, v)) (series_value s.s_metrics name))
              snaps;
        })
      series_names
  in
  print_string
    (Sf_stats.Plot.render ~width ~height ~x_label:"t (s)" ~y_label:"value" series);
  0

(* ------------------------------------------------------------------ *)
(* cmdliner surface                                                    *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCKET" ~doc:"Unix-domain telemetry socket of the running tool")

let interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Delay between scrapes")

let wrap f = try f () with Failure msg -> Printf.eprintf "sftop: %s\n" msg; 1

let watch_term =
  Term.(const (fun path interval -> wrap (fun () -> watch path interval)) $ socket_arg $ interval_arg)

let once_cmd =
  Cmd.v
    (Cmd.info "once" ~doc:"print one snapshot and exit")
    Term.(const (fun path -> wrap (fun () -> once path)) $ socket_arg)

let record_cmd =
  let out =
    Arg.(
      value & opt string "-"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Append one JSON snapshot per scrape to $(docv) (default stdout)")
  in
  let count =
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"N" ~doc:"Number of scrapes to record")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"append timed snapshots to a JSONL file for post-hoc plots")
    Term.(
      const (fun path out count interval -> wrap (fun () -> record path out count interval))
      $ socket_arg $ out $ count $ interval_arg)

let plot_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL file written by $(b,sftop record)")
  in
  let series =
    Arg.(
      non_empty & opt_all string []
      & info [ "series"; "s" ] ~docv:"NAME"
          ~doc:
            "Series to plot (repeatable): a metric name plots its natural scalar \
             (counter/gauge value, timer total, histogram count); suffix a facet for \
             the rest, e.g. $(b,gen.mori.build_s.mean_s) or \
             $(b,search.requests_per_trial.p95)")
  in
  let width = Arg.(value & opt int 72 & info [ "width" ] ~docv:"COLS" ~doc:"Plot width") in
  let height = Arg.(value & opt int 20 & info [ "height" ] ~docv:"ROWS" ~doc:"Plot height") in
  Cmd.v
    (Cmd.info "plot" ~doc:"render recorded scrapes as an ASCII trend plot")
    Term.(
      const (fun file series width height -> wrap (fun () -> plot file series width height))
      $ file $ series $ width $ height)

let watch_cmd = Cmd.v (Cmd.info "watch" ~doc:"live dashboard (the default)") watch_term

let fleet_cmd =
  let sockets =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SOCKET"
          ~doc:"Telemetry sockets of the running processes (one per process)")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Scrape every socket once, print the combined dashboard and exit \
                (nonzero if any socket is unreachable) — the CI smoke mode")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "aggregate live dashboards across several telemetry sockets (a serving \
          fleet: server + load, or a fabric coordinator) into one view")
    Term.(
      const (fun paths once interval -> wrap (fun () -> fleet paths once interval))
      $ sockets $ once $ interval_arg)

let timeline_cmd =
  let tracks =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"NAME=FILE"
          ~doc:
            "One track per process: $(docv) pairs a track name with that process's \
             $(b,--trace) .jsonl file, e.g. $(b,server=srv.jsonl load=load.jsonl)")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the merged Perfetto document to $(docv) (default stdout)")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "merge per-process .jsonl event traces into one Perfetto timeline with a \
          named track per process — spans sharing a trace id (a load request and \
          the server stages that served it) line up across tracks")
    Term.(const (fun specs out -> wrap (fun () -> timeline specs out)) $ tracks $ out)

let cmd =
  let doc = "attach a live dashboard to a running tool's telemetry socket" in
  Cmd.group ~default:watch_term
    (Cmd.info "sftop" ~doc)
    [ watch_cmd; once_cmd; record_cmd; plot_cmd; fleet_cmd; timeline_cmd ]

let () =
  (* a server that shuts down while we write the command line must
     surface as EPIPE (a clean detach in watch mode), not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit (Cmd.eval' cmd)
