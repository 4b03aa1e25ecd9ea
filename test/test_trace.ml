(* Tests for the structured event stream: sink fan-out and ordering,
   the flight-recorder ring, the JSONL and Perfetto exporters (their
   output must parse as JSON), GC sampling, progress reporting, the
   stream-backed traced runs (pinned byte-for-byte against a golden
   CSV digest), and the --no-obs kill switch.

   The stream is process-global and shared with every instrumented
   library, so each test attaches its sinks inside Fun.protect and
   detaches them before returning — a leaked sink would make every
   other suite pay for event construction. *)

module Trace = Sf_obs.Trace
module Flight = Sf_obs.Flight
module Trace_export = Sf_obs.Trace_export
module Registry = Sf_obs.Registry
module Runner = Sf_search.Runner
module Oracle = Sf_search.Oracle
module Strategies = Sf_search.Strategies
module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph

let with_sink sink body =
  let id = Trace.attach sink in
  Fun.protect ~finally:(fun () -> Trace.detach id) body

let collector acc =
  { Trace.descr = "test-collector"; emit = (fun e -> acc := e :: !acc); close = ignore }

(* --- JSON checks ---------------------------------------------------------

   The exporters' output must parse as JSON: "external tools can read
   this file". A parse error fails the test. *)

module Json = Sf_perf.Json

let parse_json s =
  match Json.parse s with Ok v -> v | Error msg -> Alcotest.failf "invalid JSON: %s" msg

let obj_field = Json.member
let str_field name j = Option.bind (Json.member name j) Json.as_str

(* --- the stream --------------------------------------------------------- *)

let test_emit_fanout_and_ordering () =
  let a = ref [] and b = ref [] in
  with_sink (collector a) (fun () ->
      with_sink (collector b) (fun () ->
          Alcotest.(check bool) "stream active with sinks" true (Trace.active ());
          Trace.instant "test.trace.one";
          Trace.instant "test.trace.two" ~args:[ ("k", Trace.Int 7) ];
          Trace.counter "test.trace.depth" 3.));
  Alcotest.(check int) "first sink saw all three" 3 (List.length !a);
  Alcotest.(check int) "second sink saw all three" 3 (List.length !b);
  let names evs = List.rev_map (fun e -> e.Trace.name) evs in
  Alcotest.(check (list string))
    "same events in the same order" (names !a) (names !b);
  let seqs = List.rev_map (fun e -> e.Trace.seq) !a in
  Alcotest.(check bool) "sequence numbers strictly increase" true
    (List.sort compare seqs = seqs && List.sort_uniq compare seqs = seqs);
  let ts = List.rev_map (fun e -> e.Trace.ts) !a in
  Alcotest.(check bool) "timestamps non-decreasing" true
    (List.sort compare ts = ts)

let test_inactive_without_sinks () =
  Alcotest.(check int) "no sinks attached between tests" 0 (Trace.attached ());
  Alcotest.(check bool) "stream inactive without sinks" false (Trace.active ())

let test_detach_closes_sink () =
  let closed = ref false in
  let id =
    Trace.attach
      { Trace.descr = "closing"; emit = ignore; close = (fun () -> closed := true) }
  in
  Trace.detach id;
  Alcotest.(check bool) "close ran on detach" true !closed;
  Trace.detach id;
  Alcotest.(check bool) "unknown id ignored, close not re-run" true !closed

let test_disabled_stream_emits_nothing () =
  let acc = ref [] in
  with_sink (collector acc) (fun () ->
      Registry.set_enabled false;
      Fun.protect
        ~finally:(fun () -> Registry.set_enabled true)
        (fun () ->
          Alcotest.(check bool) "sink attached but stream inactive" false
            (Trace.active ());
          Trace.instant "test.trace.suppressed";
          (* a whole search run: every instrumented site must stay silent *)
          let rng = Rng.of_seed 12 in
          let g = Ugraph.of_digraph (Sf_gen.Mori.tree rng ~p:0.5 ~t:150) in
          ignore (Runner.search ~rng g Strategies.bfs ~source:1 ~target:150)));
  Alcotest.(check int) "no events under --no-obs" 0 (List.length !acc)

(* --- flight recorder ---------------------------------------------------- *)

let test_flight_wraparound () =
  let f = Flight.create ~capacity:4 () in
  with_sink (Flight.sink f) (fun () ->
      for i = 1 to 10 do
        Trace.instant "test.trace.flight" ~args:[ ("i", Trace.Int i) ]
      done);
  Alcotest.(check int) "ring keeps capacity events" 4 (Flight.length f);
  Alcotest.(check int) "all events were seen" 10 (Flight.seen f);
  Alcotest.(check int) "overwritten count" 6 (Flight.dropped f);
  let kept =
    List.map
      (fun e ->
        match List.assoc "i" e.Trace.args with Trace.Int i -> i | _ -> -1)
      (Flight.events f)
  in
  Alcotest.(check (list int)) "oldest-first, most recent retained" [ 7; 8; 9; 10 ] kept

let test_flight_trigger_fires_once () =
  let f = Flight.create ~capacity:8 () in
  let fired = ref 0 in
  Flight.arm f
    ~trigger:(fun e -> e.Trace.name = "test.trace.boom")
    ~action:(fun _ -> incr fired);
  with_sink (Flight.sink f) (fun () ->
      Trace.instant "test.trace.calm";
      Alcotest.(check int) "not yet" 0 !fired;
      Trace.instant "test.trace.boom";
      Trace.instant "test.trace.boom";
      Trace.instant "test.trace.boom");
  Alcotest.(check int) "trigger disarms after the first hit" 1 !fired;
  Alcotest.(check bool) "triggering event is retained" true
    (List.exists (fun e -> e.Trace.name = "test.trace.boom") (Flight.events f))

let test_flight_dump_renders_lines () =
  let f = Flight.create ~capacity:4 () in
  with_sink (Flight.sink f) (fun () ->
      for i = 1 to 6 do
        Trace.instant "test.trace.dumpme" ~args:[ ("i", Trace.Int i) ]
      done);
  let path = Filename.temp_file "sf_flight" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Flight.dump ~out:oc f;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "dump names the event" true
        (let re = "test.trace.dumpme" in
         let rec contains i =
           i + String.length re <= String.length contents
           && (String.sub contents i (String.length re) = re || contains (i + 1))
         in
         contains 0);
      Alcotest.(check bool) "dump mentions the overwritten count" true
        (String.length contents > 0))

(* --- exporters ---------------------------------------------------------- *)

(* one synthetic stream exercising every kind, including an unmatched
   Begin (a run that raised mid-phase) *)
let synthetic_events () =
  let acc = ref [] in
  with_sink (collector acc) (fun () ->
      Trace.emit "test.phase" Trace.Begin ~args:[ ("n", Trace.Int 3) ];
      Trace.instant "test.point"
        ~args:[ ("who", Trace.Str "a\"b\\c"); ("ok", Trace.Bool true) ];
      Trace.counter "test.depth" 2.;
      Trace.emit "test.inner" Trace.Begin;
      Trace.emit "test.inner" Trace.End;
      Trace.emit "test.phase" Trace.End ~args:[ ("done", Trace.Bool true) ];
      Trace.emit "test.dangling" Trace.Begin;
      Trace.instant "test.last" ~args:[ ("vs", Trace.Ints [ 1; 2; 3 ]) ]);
  List.rev !acc

let test_perfetto_export_is_valid_json () =
  let doc = Trace_export.perfetto_json (synthetic_events ()) in
  let j = parse_json doc in
  (match str_field "displayTimeUnit" j with
  | Some u -> Alcotest.(check string) "display unit" "ms" u
  | None -> Alcotest.fail "missing displayTimeUnit");
  match obj_field "traceEvents" j with
  | Some (Json.Arr events) ->
    Alcotest.(check bool) "non-empty traceEvents" true (events <> []);
    let phs =
      List.filter_map (fun e -> str_field "ph" e) events |> List.sort_uniq compare
    in
    Alcotest.(check (list string)) "only complete/instant/counter/metadata phases"
      [ "C"; "M"; "X"; "i" ] phs;
    List.iter
      (fun e ->
        match str_field "ph" e with
        | Some "X" ->
          (match obj_field "dur" e with
          | Some (Json.Num d) ->
            Alcotest.(check bool) "slice durations non-negative" true (d >= 0.)
          | _ -> Alcotest.fail "X record without dur");
          (match obj_field "ts" e with
          | Some (Json.Num ts) ->
            Alcotest.(check bool) "timestamps relative, non-negative" true (ts >= 0.)
          | _ -> Alcotest.fail "X record without ts")
        | Some "C" ->
          (match obj_field "args" e with
          | Some (Json.Obj _) -> ()
          | _ -> Alcotest.fail "counter without args")
        | _ -> ())
      events;
    (* both phases became slices; the dangling Begin was force-closed *)
    let slice_names =
      List.filter_map
        (fun e -> if str_field "ph" e = Some "X" then str_field "name" e else None)
        events
    in
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " sliced") true (List.mem name slice_names))
      [ "test.phase"; "test.inner"; "test.dangling" ]
  | _ -> Alcotest.fail "missing traceEvents array"

let test_jsonl_lines_parse () =
  List.iter
    (fun e ->
      let line = Trace_export.event_jsonl e in
      match parse_json line with
      | Json.Obj fields ->
        Alcotest.(check bool) "has seq/ts/ph/name" true
          (List.mem_assoc "seq" fields && List.mem_assoc "ts" fields
          && List.mem_assoc "ph" fields && List.mem_assoc "name" fields)
      | _ -> Alcotest.fail "JSONL line is not an object")
    (synthetic_events ())

let test_file_sink_selection () =
  let dir = Filename.get_temp_dir_name () in
  let jsonl = Filename.concat dir "sf_trace_test.jsonl" in
  let json = Filename.concat dir "sf_trace_test.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists jsonl then Sys.remove jsonl;
      if Sys.file_exists json then Sys.remove json)
    (fun () ->
      let id_l = Trace_export.attach_file jsonl in
      let id_p = Trace_export.attach_file json in
      Fun.protect
        ~finally:(fun () ->
          Trace.detach id_l;
          Trace.detach id_p)
        (fun () ->
          Trace.instant "test.trace.file" ~args:[ ("x", Trace.Int 1) ];
          Trace.counter "test.trace.gauge" 4.);
      let read path =
        let ic = open_in path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let lines =
        String.split_on_char '\n' (read jsonl) |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "jsonl: one line per event" 2 (List.length lines);
      List.iter (fun l -> ignore (parse_json l)) lines;
      match obj_field "traceEvents" (parse_json (read json)) with
      | Some (Json.Arr evs) ->
        (* one record per event, plus the process_name metadata record *)
        Alcotest.(check int) "perfetto: one record per event" 3 (List.length evs)
      | _ -> Alcotest.fail "perfetto file missing traceEvents")

(* --- the oracle's request events ---------------------------------------- *)

let test_request_events_match_counters () =
  let requests_counter = Registry.counter "search.requests" in
  let before = Sf_obs.Counter.value requests_counter in
  let acc = ref [] in
  let outcome =
    with_sink (collector acc) (fun () ->
        let rng = Rng.of_seed 41 in
        let g = Ugraph.of_digraph (Sf_gen.Mori.tree rng ~p:0.6 ~t:300) in
        Runner.search ~rng g Strategies.bfs ~source:1 ~target:290)
  in
  let request_events =
    List.filter (fun e -> e.Trace.name = Oracle.request_event_name) !acc
  in
  Alcotest.(check int) "one event per paid request"
    outcome.Runner.total_requests (List.length request_events);
  Alcotest.(check int) "stream and counter agree"
    (Sf_obs.Counter.value requests_counter - before)
    (List.length request_events);
  (* the index argument replays the request sequence 1..N *)
  let indices =
    List.rev_map
      (fun e ->
        match List.assoc_opt "index" e.Trace.args with
        | Some (Trace.Int i) -> i
        | _ -> -1)
      request_events
  in
  Alcotest.(check (list int)) "indices are 1..N"
    (List.init (List.length indices) (fun i -> i + 1))
    indices

let test_traced_run_golden_csv () =
  (* the CSV of a fixed seeded run is pinned byte-for-byte: the
     stream-backed run_traced must reproduce what the bespoke recorder
     produced before it was deleted *)
  let rng = Rng.of_seed 95 in
  let g = Sf_gen.Mori.tree rng ~p:0.7 ~t:200 in
  let oracle =
    Oracle.start ~rng Oracle.Weak (Ugraph.of_digraph g) ~source:1 ~target:190
  in
  let _, trace = Runner.run_traced ~rng Strategies.bfs oracle in
  let csv = Runner.trace_to_csv trace in
  Alcotest.(check string) "golden digest of the seeded trace CSV"
    "e72c509f00697c5912e24b093d6e3325"
    (Digest.to_hex (Digest.string csv))

let test_traced_run_empty_when_disabled () =
  Registry.set_enabled false;
  let outcome, trace =
    Fun.protect
      ~finally:(fun () -> Registry.set_enabled true)
      (fun () ->
        let rng = Rng.of_seed 95 in
        let g = Sf_gen.Mori.tree rng ~p:0.7 ~t:200 in
        let oracle =
          Oracle.start ~rng Oracle.Weak (Ugraph.of_digraph g) ~source:1 ~target:190
        in
        Runner.run_traced ~rng Strategies.bfs oracle)
  in
  Alcotest.(check bool) "run still succeeds" true (outcome.Runner.to_target <> None);
  Alcotest.(check int) "trace empty under --no-obs" 0 (List.length trace)

(* --- GC sampling -------------------------------------------------------- *)

let test_gc_sample_gauges_and_events () =
  let acc = ref [] in
  with_sink (collector acc) (fun () -> Sf_obs.Gc_sample.sample ());
  let gauge name =
    let g = Registry.gauge name in
    Alcotest.(check bool) (name ^ " gauge set") true (Registry.gauge_set g);
    Registry.gauge_value g
  in
  Alcotest.(check bool) "heap words positive" true (gauge "gc.heap_words" > 0.);
  Alcotest.(check bool) "minor words non-negative" true (gauge "gc.minor_words" >= 0.);
  ignore (gauge "gc.minor_collections");
  ignore (gauge "gc.major_collections");
  let counter_names =
    List.filter_map
      (fun e -> match e.Trace.kind with Trace.Counter _ -> Some e.Trace.name | _ -> None)
      !acc
    |> List.sort_uniq compare
  in
  (* Resource.sample rides along and adds its RSS counter sample where
     /proc is available *)
  let expected =
    [ "gc.heap_words"; "gc.major_collections"; "gc.minor_collections" ]
    @ (if Sf_obs.Resource.available () then [ "proc.rss_bytes" ] else [])
  in
  Alcotest.(check (list string)) "gc counter samples on the stream" expected counter_names

(* --- manifest gating ----------------------------------------------------- *)

let test_manifest_checked_skips_when_disabled () =
  let path = Filename.temp_file "sf_manifest" ".json" in
  Sys.remove path;
  Registry.set_enabled false;
  let status =
    Fun.protect
      ~finally:(fun () -> Registry.set_enabled true)
      (fun () ->
        Sf_obs.Export.write_manifest_checked ~tool:"test" ~seed:1 ~mode:"unit" ~path ())
  in
  Alcotest.(check bool) "reports the skip" true (status = `Skipped_disabled);
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

let test_manifest_checked_reports_io_errors () =
  let status =
    Sf_obs.Export.write_manifest_checked ~tool:"test" ~seed:1 ~mode:"unit"
      ~path:"/nonexistent-dir-sf/obs.json" ()
  in
  match status with
  | `Error _ -> ()
  | `Written -> Alcotest.fail "wrote through a nonexistent directory"
  | `Skipped_disabled -> Alcotest.fail "registry is enabled"

(* --- progress ------------------------------------------------------------ *)

let test_progress_reporting () =
  let path = Filename.temp_file "sf_progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let pr = Sf_obs.Progress.create ~out:oc ~label:"trials" ~total:3 () in
      Sf_obs.Progress.step pr ~detail:"first";
      Sf_obs.Progress.step pr;
      Sf_obs.Progress.step pr;
      Alcotest.(check int) "steps counted" 3 (Sf_obs.Progress.completed pr);
      Sf_obs.Progress.finish pr;
      Sf_obs.Progress.step pr;
      Alcotest.(check int) "steps after finish ignored" 3 (Sf_obs.Progress.completed pr);
      close_out oc;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "line carries the label and counts" true
        (let re = "trials: 3/3" in
         let rec contains i =
           i + String.length re <= String.length s
           && (String.sub s i (String.length re) = re || contains (i + 1))
         in
         contains 0);
      Alcotest.(check bool) "final line is newline-terminated" true
        (String.length s > 0 && s.[String.length s - 1] = '\n'))

(* --- multi-process tracks ----------------------------------------------- *)

let mk ?(args = []) ~seq ~ts name kind = { Trace.seq; ts; name; kind; args }

let test_multiproc_export_tracks () =
  (* three processes with fixed stamps: untagged coordinator events on
     the default track, two tagged worker tracks via merge_tracks *)
  let coord =
    [ mk ~seq:1 ~ts:0. "merge" Trace.Begin; mk ~seq:2 ~ts:1. "merge" Trace.End ]
  in
  let w1 =
    [
      mk ~seq:1 ~ts:0.125 "trial" Trace.Begin;
      mk ~seq:2 ~ts:0.375 "trial" Trace.End;
      mk ~seq:3 ~ts:0.4375 "ckpt" Trace.Instant;
    ]
  in
  let w2 =
    [ mk ~seq:1 ~ts:0.25 "trial" Trace.Begin; mk ~seq:2 ~ts:0.5 "trial" Trace.End ]
  in
  let doc =
    Trace_export.perfetto_of_tracks ~process:"coordinator"
      [ ("coordinator", coord); ("worker-1", w1); ("worker-2", w2) ]
  in
  match obj_field "traceEvents" (parse_json doc) with
  | Some (Json.Arr events) ->
    (* each track is announced exactly once, pids in first-seen order *)
    let tracks =
      List.filter_map
        (fun e ->
          match (str_field "ph" e, obj_field "pid" e, obj_field "args" e) with
          | Some "M", Some (Json.Num pid), Some (Json.Obj args) -> (
            match List.assoc_opt "name" args with
            | Some (Json.Str name) -> Some (int_of_float pid, name)
            | _ -> None)
          | _ -> None)
        events
      |> List.sort compare
    in
    Alcotest.(check (list (pair int string)))
      "named process tracks"
      [ (1, "coordinator"); (2, "worker-1"); (3, "worker-2") ]
      tracks;
    (* every slice lands on its own process's pid *)
    let slices =
      List.filter_map
        (fun e ->
          match (str_field "ph" e, str_field "name" e, obj_field "pid" e) with
          | Some "X", Some name, Some (Json.Num pid) -> Some (int_of_float pid, name)
          | _ -> None)
        events
      |> List.sort compare
    in
    Alcotest.(check (list (pair int string)))
      "slices on their tracks"
      [ (1, "merge"); (2, "trial"); (3, "trial") ]
      slices;
    let instants =
      List.filter_map
        (fun e ->
          match (str_field "ph" e, obj_field "pid" e) with
          | Some "i", Some (Json.Num pid) -> Some (int_of_float pid)
          | _ -> None)
        events
    in
    Alcotest.(check (list int)) "instant on worker-1's track" [ 2 ] instants
  | _ -> Alcotest.fail "missing traceEvents"

(* merge_tracks restores per-track sequence order no matter how the
   input lists are shuffled: within one process, seq order and stamp
   order agree (the stream stamps monotonically), and the merge must
   keep both — per-track seqs strictly increasing in the merged
   stream, with nothing dropped. *)
let qcheck_merge_seq_order =
  let open QCheck in
  let track_gen =
    Gen.(
      int_range 0 24 >>= fun n ->
      (* nondecreasing stamps on an exact binary grid (no float noise),
         strictly increasing seqs; then shuffle the transmission order *)
      list_repeat n (int_range 0 3) >>= fun steps ->
      let _, pairs =
        List.fold_left
          (fun (ts, acc) d ->
            let ts = ts +. (float_of_int d /. 16.) in
            (ts, (List.length acc + 1, ts) :: acc))
          (0., []) steps
      in
      shuffle_l pairs)
  in
  let arb =
    make
      ~print:(fun tracks ->
        String.concat " | "
          (List.map
             (fun pairs ->
               String.concat ","
                 (List.map (fun (seq, ts) -> Printf.sprintf "%d@%g" seq ts) pairs))
             tracks))
      Gen.(int_range 1 4 >>= fun k -> list_repeat k track_gen)
  in
  Test.make ~name:"merge_tracks: seqs strictly ordered per track" ~count:200 arb
    (fun tracks ->
      let named =
        List.mapi
          (fun i pairs ->
            ( Printf.sprintf "t%d" i,
              List.map
                (fun (seq, ts) ->
                  { Trace.seq; ts; name = "e"; kind = Trace.Instant; args = [] })
                pairs ))
          tracks
      in
      let merged = Trace_export.merge_tracks named in
      List.length merged = List.fold_left (fun a (_, es) -> a + List.length es) 0 named
      && List.for_all
           (fun (name, es) ->
             let seqs =
               List.filter_map
                 (fun e ->
                   match List.assoc_opt "proc" e.Trace.args with
                   | Some (Trace.Str p) when p = name -> Some e.Trace.seq
                   | _ -> None)
                 merged
             in
             let rec strict = function
               | a :: (b :: _ as tl) -> a < b && strict tl
               | _ -> true
             in
             List.length seqs = List.length es && strict seqs)
           named)

(* --- trace-context ids --------------------------------------------------- *)

let test_tctx_derivation () =
  let module Tctx = Sf_obs.Tctx in
  let c = Tctx.derive ~seed:42 ~id:7 in
  Alcotest.(check bool) "pure: same inputs, same context" true
    (c = Tctx.derive ~seed:42 ~id:7);
  Alcotest.(check bool) "seed moves the trace id" true
    ((Tctx.derive ~seed:43 ~id:7).Tctx.trace <> c.Tctx.trace);
  Alcotest.(check bool) "request id moves the trace id" true
    ((Tctx.derive ~seed:42 ~id:8).Tctx.trace <> c.Tctx.trace);
  Alcotest.(check bool) "ids non-negative" true (c.Tctx.trace >= 0 && c.Tctx.span >= 0);
  let c1 = Tctx.child c ~key:1 and c2 = Tctx.child c ~key:2 in
  Alcotest.(check bool) "children keep the trace id" true
    (c1.Tctx.trace = c.Tctx.trace && c2.Tctx.trace = c.Tctx.trace);
  Alcotest.(check bool) "children get fresh, distinct spans" true
    (c1.Tctx.span <> c2.Tctx.span && c1.Tctx.span <> c.Tctx.span && c2.Tctx.span >= 0);
  Alcotest.(check int) "hex is 16 digits" 16 (String.length (Tctx.to_hex c.Tctx.trace));
  Alcotest.(check string) "hex of zero pads" "0000000000000000" (Tctx.to_hex 0);
  match Tctx.args c with
  | [ ("trace", Trace.Str t); ("span", Trace.Str s) ] ->
    Alcotest.(check string) "trace arg renders to_hex" (Tctx.to_hex c.Tctx.trace) t;
    Alcotest.(check string) "span arg renders to_hex" (Tctx.to_hex c.Tctx.span) s
  | _ -> Alcotest.fail "unexpected Tctx.args shape"

let suite =
  [
    ("fan-out and ordering", `Quick, test_emit_fanout_and_ordering);
    ("inactive without sinks", `Quick, test_inactive_without_sinks);
    ("detach closes the sink", `Quick, test_detach_closes_sink);
    ("disabled stream emits nothing", `Quick, test_disabled_stream_emits_nothing);
    ("flight ring wraparound", `Quick, test_flight_wraparound);
    ("flight trigger fires once", `Quick, test_flight_trigger_fires_once);
    ("flight dump renders", `Quick, test_flight_dump_renders_lines);
    ("perfetto export is valid JSON", `Quick, test_perfetto_export_is_valid_json);
    ("jsonl lines parse", `Quick, test_jsonl_lines_parse);
    ("file sink selection by suffix", `Quick, test_file_sink_selection);
    ("request events match counters", `Quick, test_request_events_match_counters);
    ("traced run golden CSV", `Quick, test_traced_run_golden_csv);
    ("traced run empty when disabled", `Quick, test_traced_run_empty_when_disabled);
    ("gc sample gauges and events", `Quick, test_gc_sample_gauges_and_events);
    ("manifest skipped when disabled", `Quick, test_manifest_checked_skips_when_disabled);
    ("manifest io errors reported", `Quick, test_manifest_checked_reports_io_errors);
    ("progress reporting", `Quick, test_progress_reporting);
    ("multi-process export tracks", `Quick, test_multiproc_export_tracks);
    QCheck_alcotest.to_alcotest qcheck_merge_seq_order;
    ("trace-context derivation", `Quick, test_tctx_derivation);
  ]
