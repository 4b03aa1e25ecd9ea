(* Tests for the observability layer: counter monotonicity, histogram
   bucket boundaries, span nesting and ordering, registry name
   semantics, and the JSON manifest round-trip.

   The registry is process-global and shared with the instrumented
   libraries and has no way to unregister a name, so these tests use a
   reserved "test.obs." name prefix. *)

module Counter = Sf_obs.Counter
module Timer = Sf_obs.Timer
module Histo = Sf_obs.Histo
module Span = Sf_obs.Span
module Registry = Sf_obs.Registry
module Export = Sf_obs.Export
module Json = Sf_obs.Json

(* --- counters ---------------------------------------------------------- *)

let test_counter_monotone () =
  let c = Counter.create () in
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c;
  Counter.incr c;
  Alcotest.(check int) "three increments" 3 (Counter.value c);
  Counter.add c 5;
  Alcotest.(check int) "add" 8 (Counter.value c);
  Counter.add c 0;
  Alcotest.(check int) "zero delta allowed" 8 (Counter.value c);
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Counter.add: negative delta (counters are monotone)") (fun () ->
      Counter.add c (-1));
  Alcotest.(check int) "unchanged after rejection" 8 (Counter.value c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

(* --- timers ------------------------------------------------------------ *)

let test_timer_accumulates () =
  let t = Timer.create () in
  Alcotest.(check int) "no intervals" 0 (Timer.count t);
  Alcotest.(check (float 1e-9)) "mean of nothing" 0. (Timer.mean_s t);
  let x = Timer.time t (fun () -> 21 * 2) in
  Alcotest.(check int) "payload returned" 42 x;
  Alcotest.(check int) "one interval" 1 (Timer.count t);
  Alcotest.(check bool) "non-negative total" true (Timer.total_s t >= 0.);
  Timer.add_s t 0.25;
  Alcotest.(check int) "add_s interval" 2 (Timer.count t);
  let total = Timer.total_s t in
  Timer.add_s t (-1.);
  Alcotest.(check int) "negative interval counted" 3 (Timer.count t);
  Alcotest.(check (float 0.)) "negative dt clamped to zero" total (Timer.total_s t);
  (* exceptions still record the interval *)
  (try Timer.time t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "interval recorded on raise" 4 (Timer.count t)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* the server adds four stage intervals per request and Runner.run one
   per search, so add_s must allocate nothing: neither on the direct
   path nor, once the shadow exists, inside a capture *)
let test_timer_add_allocates_nothing () =
  let t = Timer.create () in
  let dt = 1e-6 in
  let loop () =
    for _ = 1 to 10_000 do
      Timer.add_s t dt
    done
  in
  let baseline = minor_words_of (fun () -> ()) in
  Alcotest.(check (float 0.)) "direct" baseline (minor_words_of loop);
  let captured, shard =
    Sf_obs.Shard.capture (fun () ->
        Timer.add_s t dt;
        minor_words_of loop)
  in
  Sf_obs.Shard.merge shard;
  Alcotest.(check (float 0.)) "captured" baseline captured;
  Alcotest.(check int) "every interval counted" 20_001 (Timer.count t)

(* --- histogram bucket boundaries --------------------------------------- *)

let test_histo_bucket_boundaries () =
  let h = Histo.create () in
  (* base 2: bucket 0 is (-inf, 1]; bucket i >= 1 is (2^(i-1), 2^i] *)
  Alcotest.(check int) "negatives in bucket 0" 0 (Histo.bucket_index h (-3.));
  Alcotest.(check int) "zero in bucket 0" 0 (Histo.bucket_index h 0.);
  Alcotest.(check int) "one in bucket 0" 0 (Histo.bucket_index h 1.);
  Alcotest.(check int) "just above one" 1 (Histo.bucket_index h 1.0001);
  Alcotest.(check int) "two closes bucket 1" 1 (Histo.bucket_index h 2.);
  Alcotest.(check int) "just above two" 2 (Histo.bucket_index h 2.0001);
  Alcotest.(check int) "four closes bucket 2" 2 (Histo.bucket_index h 4.);
  Alcotest.(check int) "exact powers stay put" 10 (Histo.bucket_index h 1024.);
  Alcotest.(check int) "just above a power" 11 (Histo.bucket_index h 1024.5);
  List.iter (fun v -> Histo.observe h v) [ 0.5; 1.; 1.5; 2.; 3.; 4.; 100. ];
  Alcotest.(check int) "count" 7 (Histo.count h);
  Alcotest.(check (float 1e-9)) "sum" 112. (Histo.sum h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Histo.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100. (Histo.max_value h);
  Alcotest.(check int) "bucket 0 holds 0.5 and 1" 2 (Histo.bucket_count h 0);
  Alcotest.(check int) "bucket 1 holds 1.5 and 2" 2 (Histo.bucket_count h 1);
  Alcotest.(check int) "bucket 2 holds 3 and 4" 2 (Histo.bucket_count h 2);
  Alcotest.(check int) "bucket 7 holds 100" 1 (Histo.bucket_count h 7);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "non-empty buckets with upper bounds"
    [ (1., 2); (2., 2); (4., 2); (128., 1) ]
    (Histo.buckets h);
  (* observe_int buckets by bit length, not by log: it must agree with
     the float path wherever the float path is exact *)
  let hi = Histo.create () in
  let check_int v =
    let i = Histo.bucket_index hi (float_of_int v) in
    let before = Histo.bucket_count hi i in
    Histo.observe_int hi v;
    if Histo.bucket_count hi i <> before + 1 then
      Alcotest.failf "observe_int %d missed bucket %d" v i
  in
  for v = -3 to 1 lsl 16 do
    check_int v
  done;
  for k = 17 to 30 do
    for d = -3 to 3 do
      check_int ((1 lsl k) + d)
    done
  done

let test_histo_quantiles () =
  let h = Histo.create () in
  Alcotest.(check bool) "quantile of empty is nan" true (Float.is_nan (Histo.quantile h 0.5));
  for v = 1 to 100 do
    Histo.observe_int h v
  done;
  (* quantile returns the bucket upper bound: an upper estimate *)
  Alcotest.(check (float 1e-9)) "p50 upper estimate" 64. (Histo.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p05 in (4, 8]" 8. (Histo.quantile h 0.05);
  Alcotest.check_raises "quantile range" (Invalid_argument "Histo.quantile: need q in [0, 1]")
    (fun () -> ignore (Histo.quantile h 1.5))

let test_histo_quantile_edges () =
  let h = Histo.create () in
  (* empty: every legal q is nan, including the endpoints *)
  Alcotest.(check bool) "empty q=0 is nan" true (Float.is_nan (Histo.quantile h 0.));
  Alcotest.(check bool) "empty q=1 is nan" true (Float.is_nan (Histo.quantile h 1.));
  (* single sample: every quantile is that sample's bucket bound *)
  Histo.observe h 5.;
  Alcotest.(check (float 1e-9)) "single q=0" 8. (Histo.quantile h 0.);
  Alcotest.(check (float 1e-9)) "single q=0.5" 8. (Histo.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "single q=1" 8. (Histo.quantile h 1.);
  (* two spread samples: the endpoints bracket, q=0 skips empty
     buckets below the minimum *)
  let h2 = Histo.create () in
  Histo.observe h2 1.;
  Histo.observe h2 100.;
  Alcotest.(check (float 1e-9)) "q=0 is the min's bucket" 1. (Histo.quantile h2 0.);
  Alcotest.(check (float 1e-9)) "q=0.5 is the lower bucket" 1. (Histo.quantile h2 0.5);
  Alcotest.(check (float 1e-9)) "q=1 is the max's bucket" 128. (Histo.quantile h2 1.);
  (* out-of-range rejections on both sides *)
  Alcotest.check_raises "q below range" (Invalid_argument "Histo.quantile: need q in [0, 1]")
    (fun () -> ignore (Histo.quantile h2 (-0.1)));
  Alcotest.check_raises "q above range" (Invalid_argument "Histo.quantile: need q in [0, 1]")
    (fun () -> ignore (Histo.quantile h2 1.5))

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting_and_order () =
  Span.reset ();
  let r =
    Span.with_span "outer" (fun () ->
        Span.with_span "first-child" (fun () -> ());
        Span.with_span "second-child" (fun () -> ());
        17)
  in
  Alcotest.(check int) "payload returned" 17 r;
  Span.with_span "later-root" (fun () -> ());
  (match Span.roots () with
  | [ outer; later ] ->
    Alcotest.(check string) "roots in completion order" "outer" (Span.name outer);
    Alcotest.(check string) "second root" "later-root" (Span.name later);
    Alcotest.(check (list string)) "children in order" [ "first-child"; "second-child" ]
      (List.map Span.name (Span.children outer));
    Alcotest.(check bool) "durations non-negative" true
      (Span.duration_s outer >= 0. && Span.duration_s later >= 0.);
    let child_total =
      List.fold_left (fun acc c -> acc +. Span.duration_s c) 0. (Span.children outer)
    in
    Alcotest.(check bool) "children fit inside the parent" true
      (child_total <= Span.duration_s outer +. 1e-6)
  | roots -> Alcotest.failf "expected 2 roots, got %d" (List.length roots));
  Span.reset ();
  Alcotest.(check int) "reset empties the forest" 0 (List.length (Span.roots ()))

let test_span_exception_safety () =
  Span.reset ();
  (try Span.with_span "survives-raise" (fun () -> failwith "boom") with Failure _ -> ());
  (match Span.roots () with
  | [ s ] -> Alcotest.(check string) "span closed by the exception" "survives-raise" (Span.name s)
  | _ -> Alcotest.fail "span should have been completed");
  Span.reset ()

let test_span_disabled_is_transparent () =
  Span.reset ();
  Registry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled true)
    (fun () ->
      let r = Span.with_span "invisible" (fun () -> 5) in
      Alcotest.(check int) "body still runs" 5 r);
  Alcotest.(check int) "no span recorded while disabled" 0 (List.length (Span.roots ()))

(* --- registry ----------------------------------------------------------- *)

let test_registry_get_or_create () =
  let a = Registry.counter "test.obs.shared" in
  let b = Registry.counter "test.obs.shared" in
  Alcotest.(check bool) "same instance returned" true (a == b);
  Counter.incr a;
  Alcotest.(check int) "one object behind the name" 1 (Counter.value b)

let test_registry_kind_collision () =
  ignore (Registry.counter "test.obs.collide");
  Alcotest.check_raises "timer under a counter name"
    (Invalid_argument "Registry: metric \"test.obs.collide\" already registered as a counter")
    (fun () -> ignore (Registry.timer "test.obs.collide"));
  Alcotest.check_raises "histogram under a counter name"
    (Invalid_argument "Registry: metric \"test.obs.collide\" already registered as a counter")
    (fun () -> ignore (Registry.histo "test.obs.collide"))

let test_registry_name_grammar () =
  Alcotest.check_raises "empty name" (Invalid_argument "Registry: empty metric name") (fun () ->
      ignore (Registry.counter ""));
  Alcotest.check_raises "bad character"
    (Invalid_argument "Registry: bad character ' ' in metric name \"test obs\"") (fun () ->
      ignore (Registry.counter "test obs"))

let test_registry_gauge_and_names () =
  let g = Registry.gauge "test.obs.gauge" in
  Alcotest.(check bool) "fresh gauge unset" false (Registry.gauge_set g);
  Registry.set_gauge g 2.5;
  Alcotest.(check bool) "gauge set" true (Registry.gauge_set g);
  Alcotest.(check (float 1e-9)) "gauge value" 2.5 (Registry.gauge_value g);
  Alcotest.(check bool) "names are sorted" true
    (let names = Registry.names () in
     List.sort compare names = names);
  Alcotest.(check bool) "gauge listed" true (List.mem "test.obs.gauge" (Registry.names ()))

(* --- export round-trip --------------------------------------------------- *)

(* the keys of a document's "metrics" object, read the way the
   baseline shape check reads them *)
let metric_names doc =
  match Json.parse doc with
  | Error msg -> Alcotest.failf "not valid JSON: %s" msg
  | Ok j -> (
    match Json.member "metrics" j with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> [])

let test_manifest_roundtrip () =
  ignore (Registry.counter "test.obs.roundtrip");
  let manifest =
    Export.manifest_json
      ~extra:[ ("note", Export.json_string "shape only: {\"metrics\": tricky}") ]
      ~tool:"test" ~seed:7 ~mode:"unit" ()
  in
  let names = metric_names manifest in
  Alcotest.(check (list string)) "manifest names = registry names" (Registry.names ()) names;
  (* nested objects inside metric values are not metric names *)
  Alcotest.(check bool) "no bucket keys leak" true
    (List.for_all (fun n -> n <> "kind" && n <> "value" && n <> "buckets") names)

let test_manifest_without_metrics_section () =
  Alcotest.(check (list string)) "no metrics object" []
    (metric_names {|{"tool": "x", "seed": 3}|})

(* Export.json_string and Json.parse are inverse on every byte
   string: control bytes travel as unicode escapes *)
let test_json_string_roundtrip () =
  let s = String.init 256 Char.chr in
  Alcotest.(check bool) "all 256 bytes round-trip" true
    (Json.parse (Export.json_string s) = Ok (Json.Str s));
  Alcotest.(check bool) "escape decodes to UTF-8" true
    (Json.parse {|"\u00e9\u20ac"|} = Ok (Json.Str "\xc3\xa9\xe2\x82\xac"));
  Alcotest.(check bool) "lone surrogate is U+FFFD" true
    (Json.parse {|"\ud800"|} = Ok (Json.Str "\xef\xbf\xbd"));
  Alcotest.(check bool) "short escape rejected" true (Result.is_error (Json.parse {|"\u12"|}))

let test_csv_export_covers_registry () =
  let csv = Export.metrics_csv () in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header plus one row per metric"
    (1 + List.length (Registry.names ()))
    (List.length lines);
  Alcotest.(check string) "header" "name,kind,value,count,mean" (List.hd lines)

let test_csv_export_escapes_tricky_names () =
  (* the registry admits commas and quotes precisely because the CSV
     exporter escapes per RFC 4180 (Sf_stats.Csv.escape_field); a
     tricky name must survive a full parse round-trip *)
  let tricky = {|test.obs.csv,tricky"name|} in
  let c = Registry.counter tricky in
  Counter.incr c;
  let rows = Sf_stats.Csv.parse (Export.metrics_csv ()) in
  match List.filter (fun row -> List.nth_opt row 0 = Some tricky) rows with
  | [ row ] ->
    Alcotest.(check string) "kind survives" "counter" (List.nth row 1);
    Alcotest.(check bool) "value parses" true
      (match float_of_string_opt (List.nth row 2) with
      | Some v -> v >= 1.
      | None -> false)
  | rows -> Alcotest.failf "expected exactly one row named %S, got %d" tricky (List.length rows)

let test_disabled_counters_freeze_sites () =
  (* instrumented library sites guard on Registry.enabled: a search run
     with observability off must leave the search counters untouched *)
  let requests = Registry.counter "search.requests" in
  let before = Counter.value requests in
  Registry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled true)
    (fun () ->
      let rng = Sf_prng.Rng.of_seed 11 in
      let g = Sf_gen.Mori.tree rng ~p:0.5 ~t:200 in
      let outcome =
        Sf_search.Runner.search ~rng g Sf_search.Strategies.bfs ~source:1 ~target:200
      in
      Alcotest.(check bool) "search still works" true
        (outcome.Sf_search.Runner.to_target <> None));
  Alcotest.(check int) "no requests counted while disabled" before (Counter.value requests)

let suite =
  [
    ("counter monotonicity", `Quick, test_counter_monotone);
    ("timer accumulates", `Quick, test_timer_accumulates);
    ("histogram bucket boundaries", `Quick, test_histo_bucket_boundaries);
    ("histogram quantiles", `Quick, test_histo_quantiles);
    ("histogram quantile edge cases", `Quick, test_histo_quantile_edges);
    ("span nesting and ordering", `Quick, test_span_nesting_and_order);
    ("span exception safety", `Quick, test_span_exception_safety);
    ("span disabled transparency", `Quick, test_span_disabled_is_transparent);
    ("registry get-or-create", `Quick, test_registry_get_or_create);
    ("registry kind collision", `Quick, test_registry_kind_collision);
    ("registry name grammar", `Quick, test_registry_name_grammar);
    ("registry gauges and names", `Quick, test_registry_gauge_and_names);
    ("manifest round-trip", `Quick, test_manifest_roundtrip);
    ("manifest without metrics", `Quick, test_manifest_without_metrics_section);
    ("csv export", `Quick, test_csv_export_covers_registry);
    ("csv export escapes tricky names", `Quick, test_csv_export_escapes_tricky_names);
    ("disabled mode freezes counters", `Quick, test_disabled_counters_freeze_sites);
    ("json string round-trip", `Quick, test_json_string_roundtrip);
    ("timer add_s allocates nothing", `Quick, test_timer_add_allocates_nothing);
  ]
