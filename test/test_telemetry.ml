(* The live-telemetry battery: Series rings and their derived
   statistics, the Prometheus/JSON exposition, the unix-socket
   listener, process-resource gauges, and the SIGUSR1 flight dump.

   The load-bearing case is the concurrent one: a scraper thread
   hammering the socket while a 4-domain Searchability.measure grid
   runs must neither perturb the grid's bytes (the golden digest from
   test_parallel.ml must still come out) nor observe counters moving
   backwards. *)

module Series = Sf_obs.Series
module Expose = Sf_obs.Expose
module Resource = Sf_obs.Resource
module Registry = Sf_obs.Registry
module Counter = Sf_obs.Counter
module Timer = Sf_obs.Timer
module Histo = Sf_obs.Histo
module Export = Sf_obs.Export
module Flight = Sf_obs.Flight
module Trace = Sf_obs.Trace
module Pool = Sf_parallel.Pool
module Json = Sf_obs.Json
module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Strategies = Sf_search.Strategies
module Searchability = Sf_core.Searchability

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------------------------------------------------------- *)
(* rings                                                             *)
(* ---------------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Series.ring_create ~capacity:4 in
  Alcotest.(check int) "empty length" 0 (Series.ring_length r);
  Alcotest.(check bool) "empty last" true (Series.ring_last r = None);
  for i = 1 to 10 do
    Series.ring_push r ~ts:(float_of_int i) ~v:(float_of_int (i * i))
  done;
  Alcotest.(check int) "length capped" 4 (Series.ring_length r);
  Alcotest.(check int) "seen counts everything" 10 (Series.ring_seen r);
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "last capacity points, oldest first"
    [ (7., 49.); (8., 64.); (9., 81.); (10., 100.) ]
    (Series.ring_points r);
  Alcotest.(check bool) "last is newest" true (Series.ring_last r = Some (10., 100.))

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Series.ring_create: capacity must be >= 1") (fun () ->
      ignore (Series.ring_create ~capacity:0))

let test_rate_math () =
  let r = Series.ring_create ~capacity:8 in
  Alcotest.(check bool) "empty ring: no rate" true (Series.rate r ~window_s:10. = None);
  Series.ring_push r ~ts:0. ~v:100.;
  Alcotest.(check bool) "one point: no rate" true (Series.rate r ~window_s:10. = None);
  Series.ring_push r ~ts:2. ~v:150.;
  Series.ring_push r ~ts:4. ~v:300.;
  (* full window: (300 - 100) / (4 - 0) = 50/s *)
  (match Series.rate r ~window_s:10. with
  | Some v -> Alcotest.(check (float 1e-9)) "rate over full window" 50. v
  | None -> Alcotest.fail "expected a rate");
  (* window of 2 s keeps only ts in [2, 4]: (300 - 150) / 2 = 75/s *)
  match Series.rate r ~window_s:2. with
  | Some v -> Alcotest.(check (float 1e-9)) "rate over trailing window" 75. v
  | None -> Alcotest.fail "expected a windowed rate"

let test_ewma_math () =
  let r = Series.ring_create ~capacity:8 in
  Alcotest.(check bool) "empty ring: no ewma" true (Series.ewma r ~tau_s:1. = None);
  Series.ring_push r ~ts:0. ~v:10.;
  (match Series.ewma r ~tau_s:1. with
  | Some v -> Alcotest.(check (float 1e-9)) "single point is its own ewma" 10. v
  | None -> Alcotest.fail "expected an ewma");
  Series.ring_push r ~ts:1. ~v:20.;
  (* a = 1 - exp(-1); e = 10 + a * 10 *)
  let expected = 10. +. ((1. -. exp (-1.)) *. 10.) in
  (match Series.ewma r ~tau_s:1. with
  | Some v -> Alcotest.(check (float 1e-9)) "one decay step" expected v
  | None -> Alcotest.fail "expected an ewma");
  Alcotest.check_raises "tau must be positive"
    (Invalid_argument "Series.ewma: tau_s must be > 0") (fun () ->
      ignore (Series.ewma r ~tau_s:0.))

let test_window_quantile_math () =
  let r = Series.ring_create ~capacity:16 in
  List.iteri
    (fun i v -> Series.ring_push r ~ts:(float_of_int i) ~v)
    [ 5.; 1.; 9.; 3.; 7. ];
  (* nearest rank over all five values [1;3;5;7;9] *)
  let q p =
    match Series.window_quantile r ~window_s:100. p with
    | Some v -> v
    | None -> Alcotest.fail "expected a quantile"
  in
  Alcotest.(check (float 0.)) "q0 is min" 1. (q 0.);
  Alcotest.(check (float 0.)) "median" 5. (q 0.5);
  Alcotest.(check (float 0.)) "q1 is max" 9. (q 1.);
  (* window of 1 s keeps ts in [3, 4]: values [3;7] *)
  (match Series.window_quantile r ~window_s:1. 0.5 with
  | Some v -> Alcotest.(check (float 0.)) "windowed median" 3. v
  | None -> Alcotest.fail "expected a windowed quantile");
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Series.window_quantile: q outside [0,1]") (fun () ->
      ignore (Series.window_quantile r ~window_s:1. 1.5))

(* Arbitrary tick sequences: the ring must retain exactly the last
   [capacity] points in push order, and the windowed quantile must
   agree with a direct nearest-rank computation over those points. *)
let prop_ring_arbitrary_ticks =
  QCheck.Test.make ~name:"Series ring on arbitrary tick sequences" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair (float_bound_exclusive 10.) (float_bound_exclusive 1000.))))
    (fun (capacity, steps) ->
      let r = Series.ring_create ~capacity in
      (* strictly increasing timestamps from arbitrary non-negative deltas *)
      let _, rev_points =
        List.fold_left
          (fun (t, acc) (dt, v) ->
            let t = t +. Float.abs dt +. 0.001 in
            (t, (t, v) :: acc))
          (0., []) steps
      in
      let points = List.rev rev_points in
      List.iter (fun (ts, v) -> Series.ring_push r ~ts ~v) points;
      let n = List.length points in
      let expected_points =
        (* the last [capacity] pushes, oldest first *)
        List.filteri (fun i _ -> i >= n - capacity) points
      in
      let retained_ok =
        Series.ring_points r = expected_points
        && Series.ring_seen r = n
        && Series.ring_length r = min n capacity
      in
      let quantile_ok =
        match Series.window_quantile r ~window_s:Float.max_float 0.5 with
        | None -> expected_points = []
        | Some got ->
          let vs = List.map snd expected_points |> Array.of_list in
          Array.sort compare vs;
          let m = Array.length vs in
          let rank = int_of_float (ceil (0.5 *. float_of_int m)) in
          got = vs.(max 0 (min (m - 1) (rank - 1)))
      in
      retained_ok && quantile_ok)

(* ---------------------------------------------------------------- *)
(* sampling the registry                                             *)
(* ---------------------------------------------------------------- *)

let test_sample_facets () =
  let c = Registry.counter "test.telem.hits" in
  let tm = Registry.timer "test.telem.phase_s" in
  let g = Registry.gauge "test.telem.depth" in
  let h = Registry.histo "test.telem.lat" in
  Counter.add c 7;
  Timer.time tm (fun () -> ());
  Registry.set_gauge g 2.5;
  Histo.observe h 3.;
  let s = Series.create ~capacity:8 () in
  Series.sample s;
  let last name =
    Option.join (Series.with_ring s name (fun r -> Option.map snd (Series.ring_last r)))
  in
  Alcotest.(check bool) "counter facet" true (last "test.telem.hits" = Some 7.);
  Alcotest.(check bool) "timer count facet" true (last "test.telem.phase_s.count" = Some 1.);
  Alcotest.(check bool) "timer total facet" true (last "test.telem.phase_s.total_s" <> None);
  Alcotest.(check bool) "gauge facet" true (last "test.telem.depth" = Some 2.5);
  Alcotest.(check bool) "histo count facet" true (last "test.telem.lat.count" = Some 1.);
  Alcotest.(check bool) "histo p95 facet" true (last "test.telem.lat.p95" <> None);
  Counter.add c 5;
  Series.sample s;
  Alcotest.(check bool) "counter advanced" true (last "test.telem.hits" = Some 12.);
  Alcotest.(check int) "two snapshots" 2 (Series.samples s);
  (* gc/rss gauges ride along every sample *)
  Alcotest.(check bool) "gc gauges sampled" true
    (Series.with_ring s "gc.minor_collections" (fun _ -> ()) <> None)

let test_unset_gauge_skipped () =
  let _g = Registry.gauge "test.telem.never_set" in
  let s = Series.create () in
  Series.sample s;
  Alcotest.(check bool) "unset gauge has no series" true
    (Series.with_ring s "test.telem.never_set" (fun _ -> ()) = None)

let test_background_sampler () =
  let s = Series.create ~capacity:64 ~tick_s:0.02 () in
  Series.start s;
  Alcotest.(check bool) "running" true (Series.running s);
  Thread.delay 0.15;
  Series.stop s;
  Alcotest.(check bool) "stopped" false (Series.running s);
  let n = Series.samples s in
  Alcotest.(check bool) (Printf.sprintf "ticked a few times (saw %d)" n) true (n >= 3);
  Series.stop s;
  Alcotest.(check int) "stop is idempotent" n (Series.samples s)

(* ---------------------------------------------------------------- *)
(* exposition                                                        *)
(* ---------------------------------------------------------------- *)

let test_sanitize () =
  Alcotest.(check string) "dots and slashes" "sf_gen_mori_build_s"
    (Expose.sanitize "gen.mori.build_s");
  Alcotest.(check string) "odd characters" "sf_a_b_c_d_1"
    (Expose.sanitize "a,b/c\"d-1")

(* The exposition grammar, pinned byte for byte over metrics with
   hand-fed values (a fake timer clock makes the seconds exact). *)
let test_prometheus_golden () =
  let c = Registry.counter "test.telem.golden.hits" in
  let tm = Registry.timer "test.telem.golden.build_s" in
  let g = Registry.gauge "test.telem.golden.depth" in
  let h = Registry.histo "test.telem.golden.lat" in
  Counter.add c 42;
  let fake = ref 0. in
  Timer.set_clock (fun () -> !fake);
  Fun.protect
    ~finally:(fun () -> Timer.set_clock Unix.gettimeofday)
    (fun () ->
      Timer.start tm;
      fake := 1.5;
      Timer.stop tm);
  Registry.set_gauge g 3.5;
  List.iter (Histo.observe h) [ 1.; 2.; 4. ];
  let rendered =
    Expose.render_prometheus_for
      [
        ("test.telem.golden.hits", Registry.Counter c);
        ("test.telem.golden.build_s", Registry.Timer tm);
        ("test.telem.golden.depth", Registry.Gauge g);
        ("test.telem.golden.lat", Registry.Histo h);
      ]
  in
  let golden =
    String.concat "\n"
      [
        "# TYPE sf_test_telem_golden_hits_total counter";
        "sf_test_telem_golden_hits_total 42";
        "# TYPE sf_test_telem_golden_build_s_seconds_total counter";
        "sf_test_telem_golden_build_s_seconds_total 1.5";
        "# TYPE sf_test_telem_golden_build_s_count counter";
        "sf_test_telem_golden_build_s_count 1";
        "# TYPE sf_test_telem_golden_depth gauge";
        "sf_test_telem_golden_depth 3.5";
        "# TYPE sf_test_telem_golden_lat summary";
        {|sf_test_telem_golden_lat{quantile="0.5"} 2|};
        {|sf_test_telem_golden_lat{quantile="0.95"} 4|};
        {|sf_test_telem_golden_lat{quantile="0.99"} 4|};
        {|sf_test_telem_golden_lat{quantile="0.999"} 4|};
        "sf_test_telem_golden_lat_sum 7";
        "sf_test_telem_golden_lat_count 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition bytes" golden rendered

let test_histo_json_has_p95 () =
  let h = Registry.histo "test.telem.p95check" in
  List.iter (Histo.observe h) [ 1.; 2.; 4. ];
  match Json.parse (Export.metrics_json ()) with
  | Error msg -> Alcotest.fail ("metrics_json unparseable: " ^ msg)
  | Ok j ->
    let p95 =
      Option.bind (Json.member "test.telem.p95check" j) (fun m ->
          Option.bind (Json.member "p95" m) Json.as_num)
    in
    Alcotest.(check bool) "p95 present" true (p95 = Some 4.)

let test_histo_json_has_p999 () =
  let h = Registry.histo "test.telem.p999check" in
  (* 1000 observations with two outliers: the top 0.2% sits past the
     nearest-rank p999 cut, in the tail bucket that p99 rounds away *)
  for _ = 1 to 998 do
    Histo.observe h 1.
  done;
  Histo.observe h 512.;
  Histo.observe h 512.;
  match Json.parse (Export.metrics_json ()) with
  | Error msg -> Alcotest.fail ("metrics_json unparseable: " ^ msg)
  | Ok j ->
    let facet name =
      Option.bind (Json.member "test.telem.p999check" j) (fun m ->
          Option.bind (Json.member name m) Json.as_num)
    in
    (match facet "p999" with
    | Some p999 -> Alcotest.(check bool) "p999 sees the outlier" true (p999 > 1.)
    | None -> Alcotest.fail "p999 facet missing");
    match (facet "p999", facet "p99") with
    | Some p999, Some p99 ->
      Alcotest.(check bool) "quantiles ordered" true (p999 >= p99)
    | _ -> Alcotest.fail "quantile facets missing"

(* ---------------------------------------------------------------- *)
(* the socket                                                        *)
(* ---------------------------------------------------------------- *)

let test_sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sft-%d-%s.sock" (Unix.getpid ()) name)

let write_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with 0 -> () | w -> go (off + w)
  in
  go 0

let scrape path command =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      write_all fd (command ^ "\n");
      let acc = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents acc
        | n ->
          Buffer.add_subbytes acc chunk 0 n;
          go ()
      in
      go ())

let with_listener name body =
  let series = Series.create ~capacity:32 () in
  let path = test_sock_path name in
  let listener = Expose.serve ~series ~path () in
  Fun.protect ~finally:(fun () -> Expose.stop listener) (fun () -> body path listener)

let test_socket_protocol () =
  let c = Registry.counter "test.telem.sock.hits" in
  Counter.add c 3;
  with_listener "proto" (fun path listener ->
      Alcotest.(check string) "ping answers pong" "pong\n" (scrape path "ping");
      let prom = scrape path "metrics" in
      Alcotest.(check bool) "prometheus body has the counter" true
        (contains_sub prom "sf_test_telem_sock_hits_total 3");
      let json = scrape path "json" in
      (match Json.parse (String.trim json) with
      | Error msg -> Alcotest.fail ("json snapshot unparseable: " ^ msg)
      | Ok j ->
        let v =
          Option.bind (Json.member "metrics" j) (fun m ->
              Option.bind (Json.member "test.telem.sock.hits" m) (fun c ->
                  Option.bind (Json.member "value" c) Json.as_num))
        in
        Alcotest.(check bool) "snapshot carries the counter" true (v = Some 3.));
      let series_dump = scrape path "series" in
      (match Json.parse (String.trim series_dump) with
      | Error msg -> Alcotest.fail ("series dump unparseable: " ^ msg)
      | Ok j ->
        Alcotest.(check bool) "series dump has the ring" true
          (Option.bind (Json.member "series" j) (Json.member "test.telem.sock.hits")
          <> None));
      let err = scrape path "bogus" in
      Alcotest.(check bool) "unknown command answers err" true
        (String.length err >= 3 && String.sub err 0 3 = "err");
      Alcotest.(check int) "ping and bogus are not scrapes" 3 (Expose.scrapes listener))

let test_socket_path_too_long () =
  let path = String.make 120 'x' in
  let series = Series.create () in
  Alcotest.(check bool) "long path rejected" true
    (try
       ignore (Expose.serve ~series ~path ());
       false
     with Invalid_argument _ -> true)

(* serve must not delete arbitrary files handed to it as a socket path
   (--telemetry ./results.json) *)
let test_socket_path_not_socket () =
  let path = Filename.temp_file "sft-notsock" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let series = Series.create () in
      Alcotest.(check bool) "regular file rejected" true
        (try
           ignore (Expose.serve ~series ~path ());
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) "file survives the attempt" true (Sys.file_exists path))

(* ... nor steal the socket of another live listener *)
let test_socket_path_live () =
  with_listener "live" (fun path _listener ->
      let series = Series.create () in
      Alcotest.(check bool) "live socket rejected" true
        (try
           ignore (Expose.serve ~series ~path ());
           false
         with Invalid_argument _ -> true);
      Alcotest.(check string) "first listener still answers" "pong\n" (scrape path "ping"))

(* ... while a stale socket left by a dead run is reclaimed *)
let test_socket_path_stale_reclaimed () =
  let path = test_sock_path "stale" in
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead (* closed without unlinking: the file remains, unanswered *);
  let series = Series.create ~capacity:32 () in
  let listener = Expose.serve ~series ~path () in
  Fun.protect
    ~finally:(fun () -> Expose.stop listener)
    (fun () ->
      Alcotest.(check string) "reclaimed socket answers" "pong\n" (scrape path "ping"))

(* A client that connects, commands, and vanishes without reading must
   not hurt the server (SIGPIPE ignored, EPIPE swallowed). *)
let test_client_disconnect_mid_response () =
  with_listener "rude" (fun path _listener ->
      for _ = 1 to 5 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        write_all fd "series\n";
        Unix.close fd
      done;
      (* give the listener time to hit the broken pipes *)
      Thread.delay 0.05;
      Alcotest.(check string) "server survives rude clients" "pong\n" (scrape path "ping"))

(* A process holding more than FD_SETSIZE descriptors (a full sfserve)
   still answers a scrape, whose socket is then past select's limit. *)
let test_scrape_past_fd_setsize () =
  with_listener "fds" (fun path _listener ->
      let held = Fds.open_up_to 1100 (fun () -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0) in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close held)
        (fun () ->
          if Fds.reached_limit held then
            Alcotest.(check string) "ping past FD_SETSIZE answers pong" "pong\n"
              (scrape path "ping")))

let test_manifest_extras () =
  let extras = Expose.manifest_extras () in
  Alcotest.(check bool) "rss_peak_bytes present" true
    (List.mem_assoc "rss_peak_bytes" extras);
  Alcotest.(check bool) "telemetry_scrapes present" true
    (List.mem_assoc "telemetry_scrapes" extras);
  Alcotest.(check string) "no listener means zero scrapes" "0"
    (List.assoc "telemetry_scrapes" extras);
  if Resource.available () then
    Alcotest.(check bool) "peak is a positive byte count" true
      (int_of_string (List.assoc "rss_peak_bytes" extras) > 0)

let test_resource_probe () =
  if Resource.available () then begin
    Alcotest.(check bool) "rss positive" true (Resource.rss_bytes () > 0);
    Alcotest.(check bool) "peak at least a probe's rss" true
      (Resource.rss_peak_bytes () > 0)
  end

(* ---------------------------------------------------------------- *)
(* concurrent scrape while a 4-domain grid runs                      *)
(* ---------------------------------------------------------------- *)

let grid_spec = { Searchability.default_spec with Searchability.trials = 5 }

let grid_csv ~jobs =
  let master = Rng.of_seed 2007 in
  let make rng n = (Sf_gen.Mori.tree rng ~p:0.5 ~t:n, n) in
  let points =
    Searchability.measure ~jobs master ~make
      ~strategies:[ Strategies.bfs; Strategies.high_degree ]
      ~sizes:[ 60; 90 ] ~spec:grid_spec
  in
  Searchability.points_to_csv points

(* must match test_parallel.ml: telemetry attached or not, the grid's
   bytes are the grid's bytes *)
let grid_csv_digest = "12c7ed4284945390e2d185a134d18048"

let test_concurrent_scrape_jobs4 () =
  let requests = Registry.counter "search.requests" in
  let base = Counter.value requests in
  with_listener "conc" (fun path _listener ->
      let series = Series.create ~capacity:128 ~tick_s:0.005 () in
      Series.start series;
      let stop_flag = Atomic.make false in
      let observed = ref [] in
      let scraper =
        Thread.create
          (fun () ->
            while not (Atomic.get stop_flag) do
              (match Json.parse (String.trim (scrape path "json")) with
              | Ok j -> (
                match
                  Option.bind (Json.member "metrics" j) (fun m ->
                      Option.bind (Json.member "search.requests" m) (fun c ->
                          Option.bind (Json.member "value" c) Json.as_num))
                with
                | Some v -> observed := v :: !observed
                | None -> ())
              | Error _ -> ());
              Thread.delay 0.005
            done)
          ()
      in
      (* the grid can outrun the scraper's thread scheduling: repeat it
         (identical bytes every pass) until a few scrapes have landed *)
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop_flag true;
          Thread.join scraper;
          Series.stop series)
        (fun () ->
          let passes = ref 0 in
          while List.length !observed < 3 && !passes < 10 do
            let csv = grid_csv ~jobs:4 in
            incr passes;
            Alcotest.(check string)
              (Printf.sprintf "golden digest with telemetry attached (pass %d)" !passes)
              grid_csv_digest
              (Digest.to_hex (Digest.string csv))
          done);
      let scrapes = List.rev !observed in
      Alcotest.(check bool)
        (Printf.sprintf "scraped while running (saw %d)" (List.length scrapes))
        true
        (List.length scrapes >= 2);
      let monotone =
        List.for_all2
          (fun a b -> b >= a)
          (List.filteri (fun i _ -> i < List.length scrapes - 1) scrapes)
          (List.tl scrapes)
      in
      Alcotest.(check bool) "counter never moves backwards" true monotone;
      Alcotest.(check bool) "counter advanced past its base" true
        (match List.rev scrapes with
        | last :: _ -> last >= float_of_int base
        | [] -> false))

(* telemetry enabled end to end must not shift the measurement bytes *)
let test_grid_identical_with_and_without_sampler () =
  let bare = grid_csv ~jobs:1 in
  let sampled =
    let series = Series.create ~capacity:64 ~tick_s:0.005 () in
    Series.start series;
    Fun.protect ~finally:(fun () -> Series.stop series) (fun () -> grid_csv ~jobs:1)
  in
  Alcotest.(check string) "byte-identical with sampler attached" bare sampled

(* ---------------------------------------------------------------- *)
(* SIGUSR1                                                           *)
(* ---------------------------------------------------------------- *)

let test_sigusr1_dump () =
  let fl = Flight.create ~capacity:8 () in
  let id = Trace.attach (Flight.sink fl) in
  Trace.instant "test.telem.stuck";
  Trace.detach id;
  let path = Filename.temp_file "sf-usr1" ".txt" in
  let oc = open_out path in
  let installed = Flight.install_sigusr1 ~out:oc fl in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigusr1 Sys.Signal_default;
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      if installed then begin
        Unix.kill (Unix.getpid ()) Sys.sigusr1;
        (* the handler runs at a safepoint; give the runtime a few *)
        let deadline = Unix.gettimeofday () +. 2. in
        let dumped () =
          flush oc;
          let ic = open_in path in
          let len = in_channel_length ic in
          let body = really_input_string ic len in
          close_in ic;
          body
        in
        let rec wait () =
          let body = dumped () in
          if String.length body > 0 || Unix.gettimeofday () > deadline then body
          else begin
            Thread.delay 0.01;
            wait ()
          end
        in
        let body = wait () in
        Alcotest.(check bool) "dump header present" true
          (contains_sub body "flight recorder");
        Alcotest.(check bool) "recorded event present" true
          (contains_sub body "test.telem.stuck")
      end)

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring rejects bad capacity" `Quick test_ring_rejects_bad_capacity;
    Alcotest.test_case "rolling rate math" `Quick test_rate_math;
    Alcotest.test_case "time-decayed ewma math" `Quick test_ewma_math;
    Alcotest.test_case "windowed quantile math" `Quick test_window_quantile_math;
    QCheck_alcotest.to_alcotest prop_ring_arbitrary_ticks;
    Alcotest.test_case "sample pushes every facet" `Quick test_sample_facets;
    Alcotest.test_case "unset gauge has no series" `Quick test_unset_gauge_skipped;
    Alcotest.test_case "background sampler ticks" `Quick test_background_sampler;
    Alcotest.test_case "prometheus name sanitization" `Quick test_sanitize;
    Alcotest.test_case "prometheus exposition golden" `Quick test_prometheus_golden;
    Alcotest.test_case "histogram json carries p95" `Quick test_histo_json_has_p95;
    Alcotest.test_case "histogram json carries p999" `Quick test_histo_json_has_p999;
    Alcotest.test_case "socket protocol end to end" `Quick test_socket_protocol;
    Alcotest.test_case "socket path length guard" `Quick test_socket_path_too_long;
    Alcotest.test_case "socket path refuses regular file" `Quick test_socket_path_not_socket;
    Alcotest.test_case "socket path refuses live socket" `Quick test_socket_path_live;
    Alcotest.test_case "stale socket reclaimed" `Quick test_socket_path_stale_reclaimed;
    Alcotest.test_case "client disconnect mid-response" `Quick test_client_disconnect_mid_response;
    Alcotest.test_case "manifest extras" `Quick test_manifest_extras;
    Alcotest.test_case "resource probe" `Quick test_resource_probe;
    Alcotest.test_case "concurrent scrape at jobs 4 (golden)" `Slow
      test_concurrent_scrape_jobs4;
    Alcotest.test_case "grid bytes identical with sampler" `Slow
      test_grid_identical_with_and_without_sampler;
    Alcotest.test_case "sigusr1 dumps the flight ring" `Quick test_sigusr1_dump;
    Alcotest.test_case "scrape past FD_SETSIZE" `Quick test_scrape_past_fd_setsize;
  ]
