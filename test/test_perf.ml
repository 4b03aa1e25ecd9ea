(* Tests for the performance-trajectory subsystem: the BENCH_<n>.json
   schema, the statistical comparison engine, the history renderer and
   the CI gate. The synthetic-regression fixtures pin the contract the
   CI perf job relies on: a 50 % slowdown fails the gate, a
   self-comparison passes it, and sub-noise-floor drift never flags. *)

module Bench_file = Sf_perf.Bench_file
module Compare = Sf_perf.Compare
module Gate = Sf_perf.Gate
module History = Sf_perf.History
module Rng = Sf_prng.Rng

let temp_counter = ref 0

let with_temp_dir body =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-perf-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> body dir)

let host =
  { Bench_file.hostname = "testhost"; os = "Unix"; word_size = 64; ocaml = "5.1.1" }

let mk_file ?(commit = "abc123") ?(mode = "quick") ?(jobs = 1) ?host:(h = host) benchmarks =
  {
    Bench_file.commit;
    date = "2026-08-06T00:00:00Z";
    host = h;
    jobs;
    seed = 1;
    mode;
    benchmarks =
      List.map
        (fun (name, samples) -> { Bench_file.name; unit_label = "ns"; samples })
        benchmarks;
  }

(* samples around [center] with a deterministic +/-[spread] fraction
   of uniform jitter — the shape of real timing noise minus the tail *)
let jittered rng ~center ~spread ~n =
  Array.init n (fun _ ->
      center *. (1. -. spread +. (2. *. spread *. Rng.unit_float rng)))

(* --- Bench_file ---------------------------------------------------------- *)

let test_schema_roundtrip () =
  let file =
    mk_file
      [
        ("sf/gen: mori tree (T1)", [| 100.5; 101.25; 99.75 |]);
        ("exp.T3", [| 2.5e9 |]);
        ({|tricky "name", with csv chars|}, [| 0.; 1.5 |]);
      ]
  in
  match Bench_file.of_json (Bench_file.to_json file) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok back ->
    Alcotest.(check string) "commit" file.Bench_file.commit back.Bench_file.commit;
    Alcotest.(check string) "date" file.Bench_file.date back.Bench_file.date;
    Alcotest.(check string) "mode" file.Bench_file.mode back.Bench_file.mode;
    Alcotest.(check int) "jobs" file.Bench_file.jobs back.Bench_file.jobs;
    Alcotest.(check int) "seed" file.Bench_file.seed back.Bench_file.seed;
    Alcotest.(check string) "hostname" "testhost" back.Bench_file.host.Bench_file.hostname;
    Alcotest.(check (list string)) "names preserved in order" (Bench_file.names file)
      (Bench_file.names back);
    List.iter2
      (fun (a : Bench_file.benchmark) (b : Bench_file.benchmark) ->
        Alcotest.(check (array (float 1e-9)))
          (Printf.sprintf "samples of %s" a.Bench_file.name)
          a.Bench_file.samples b.Bench_file.samples)
      file.Bench_file.benchmarks back.Bench_file.benchmarks

let contains ~needle hay =
  let nn = String.length needle and nh = String.length hay in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_rejects name json expected_fragment =
  match Bench_file.of_json json with
  | Ok _ -> Alcotest.failf "%s: accepted invalid document" name
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error mentions %S (got %S)" name expected_fragment msg)
      true
      (contains ~needle:expected_fragment msg)

let render_with ~schema benchmarks =
  (* swap the schema id textually: the writer always emits the real one *)
  let json = Bench_file.to_json (mk_file benchmarks) in
  let marker = Printf.sprintf "%S" Bench_file.schema_id in
  let idx =
    let rec find i =
      if i + String.length marker > String.length json then raise Not_found
      else if String.sub json i (String.length marker) = marker then i
      else find (i + 1)
    in
    find 0
  in
  String.sub json 0 idx
  ^ Printf.sprintf "%S" schema
  ^ String.sub json
      (idx + String.length marker)
      (String.length json - idx - String.length marker)

let test_of_json_validation () =
  check_rejects "garbage" "not json at all" "not valid JSON";
  check_rejects "wrong schema"
    (render_with ~schema:"scalefree.bench/999" [ ("a", [| 1. |]) ])
    "unsupported schema";
  check_rejects "missing commit"
    {|{"schema": "scalefree.bench/1", "date": "d"}|} {|"commit"|};
  let doc ?(jobs = 1) ?(mode = {|"quick"|}) benches =
    {|{"schema": "scalefree.bench/1", "commit": "c", "date": "d",
       "host": {"hostname": "h", "os": "Unix", "word_size": 64, "ocaml": "5.1.1"},
       "jobs": |} ^ string_of_int jobs ^ {|, "seed": 1, "mode": |} ^ mode
    ^ {|, "benchmarks": |} ^ benches ^ "}"
  in
  check_rejects "empty samples" (doc {|[{"name": "a", "unit": "ns", "samples": []}]|})
    "has no samples";
  check_rejects "negative sample"
    (doc {|[{"name": "a", "unit": "ns", "samples": [1.0, -2.0]}]|})
    "non-finite or negative";
  check_rejects "duplicate names"
    (doc
       {|[{"name": "a", "unit": "ns", "samples": [1.0]},
          {"name": "a", "unit": "ns", "samples": [2.0]}]|})
    "duplicate benchmark name";
  check_rejects "empty name" (doc {|[{"name": "", "unit": "ns", "samples": [1.0]}]|})
    "empty benchmark name";
  check_rejects "bad jobs" (doc ~jobs:0 "[]") "jobs must be positive";
  check_rejects "empty mode" (doc ~mode:{|""|} "[]") "empty mode";
  match Bench_file.of_json (doc "[]") with
  | Ok f -> Alcotest.(check int) "empty benchmark list is legal" 0 (List.length f.Bench_file.benchmarks)
  | Error msg -> Alcotest.failf "minimal valid doc rejected: %s" msg

let test_filenames () =
  Alcotest.(check string) "filename pads" "BENCH_0007.json" (Bench_file.filename 7);
  Alcotest.(check string) "filename wide" "BENCH_12345.json" (Bench_file.filename 12345);
  Alcotest.check_raises "filename rejects zero"
    (Invalid_argument "Bench_file.filename: need a positive index") (fun () ->
      ignore (Bench_file.filename 0));
  Alcotest.(check (option int)) "inverse" (Some 7)
    (Bench_file.index_of_filename "BENCH_0007.json");
  Alcotest.(check (option int)) "no padding required" (Some 123)
    (Bench_file.index_of_filename "BENCH_123.json");
  Alcotest.(check (option int)) "rejects zero" None
    (Bench_file.index_of_filename "BENCH_0000.json");
  Alcotest.(check (option int)) "rejects other files" None
    (Bench_file.index_of_filename "bench.json");
  Alcotest.(check (option int)) "rejects non-digits" None
    (Bench_file.index_of_filename "BENCH_00x7.json");
  Alcotest.(check (option int)) "rejects signs" None
    (Bench_file.index_of_filename "BENCH_+1.json")

let test_history_dir_listing () =
  with_temp_dir (fun dir ->
      Alcotest.(check int) "empty dir starts at 1" 1 (Bench_file.next_index ~dir);
      Alcotest.(check int) "missing dir starts at 1" 1
        (Bench_file.next_index ~dir:(Filename.concat dir "nope"));
      let write i =
        Bench_file.write
          ~path:(Filename.concat dir (Bench_file.filename i))
          (mk_file [ ("a", [| float_of_int i |]) ])
      in
      write 1;
      write 3;
      (* an unrelated file must be ignored *)
      let oc = open_out (Filename.concat dir "README.txt") in
      output_string oc "not a bench file";
      close_out oc;
      Alcotest.(check (list int)) "indices ascending" [ 1; 3 ]
        (List.map fst (Bench_file.list_dir ~dir));
      Alcotest.(check int) "next skips the gap" 4 (Bench_file.next_index ~dir))

(* --- Compare -------------------------------------------------------------- *)

let policy = Compare.default_policy

let test_bootstrap_ci () =
  let rng = Rng.of_seed 42 in
  let xs = jittered rng ~center:1000. ~spread:0.05 ~n:60 in
  let lo, hi = Compare.bootstrap_median_ci policy xs in
  let lo2, hi2 = Compare.bootstrap_median_ci policy xs in
  Alcotest.(check (float 1e-12)) "deterministic lo" lo lo2;
  Alcotest.(check (float 1e-12)) "deterministic hi" hi hi2;
  let median = Sf_stats.Quantile.median xs in
  Alcotest.(check bool)
    (Printf.sprintf "CI [%.1f, %.1f] brackets the median %.1f" lo hi median)
    true
    (lo <= median && median <= hi && lo < hi);
  Alcotest.(check bool) "CI is tight for low-noise samples" true
    ((hi -. lo) /. median < 0.05);
  Alcotest.(check (pair (float 0.) (float 0.))) "single sample collapses" (7., 7.)
    (Compare.bootstrap_median_ci policy [| 7. |]);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Compare.bootstrap_median_ci: empty sample") (fun () ->
      ignore (Compare.bootstrap_median_ci policy [||]))

let test_compare_identical_unchanged () =
  let rng = Rng.of_seed 7 in
  let xs = jittered rng ~center:1000. ~spread:0.05 ~n:50 in
  let r = Compare.samples policy ~unit_label:"ns" ~name:"x" ~base:xs ~cand:(Array.copy xs) in
  Alcotest.(check bool) "identical samples are unchanged" true
    (r.Compare.verdict = Compare.Unchanged);
  Alcotest.(check (float 1e-9)) "zero change" 0. r.Compare.change_pct;
  Alcotest.(check bool) (Printf.sprintf "p=%.3f is large" r.Compare.p) true
    (r.Compare.p > 0.5)

let test_compare_regression_detected () =
  (* the pinned CI fixture: a 50 % slowdown with realistic jitter must
     come back Regressed with an effect size near +50 % *)
  let rng = Rng.of_seed 11 in
  let base = jittered rng ~center:1000. ~spread:0.05 ~n:50 in
  let cand = jittered rng ~center:1500. ~spread:0.05 ~n:50 in
  let r = Compare.samples policy ~unit_label:"ns" ~name:"slow" ~base ~cand in
  Alcotest.(check bool)
    (Printf.sprintf "50%% slowdown flags (p=%.4g, change=%+.1f%%)" r.Compare.p
       r.Compare.change_pct)
    true
    (r.Compare.verdict = Compare.Regressed);
  Alcotest.(check bool) "change near +50%" true
    (r.Compare.change_pct > 40. && r.Compare.change_pct < 60.);
  Alcotest.(check bool) "significant" true (r.Compare.p < policy.Compare.alpha)

let test_compare_improvement_detected () =
  let rng = Rng.of_seed 13 in
  let base = jittered rng ~center:1500. ~spread:0.05 ~n:50 in
  let cand = jittered rng ~center:1000. ~spread:0.05 ~n:50 in
  let r = Compare.samples policy ~unit_label:"ns" ~name:"fast" ~base ~cand in
  Alcotest.(check bool) "speedup flags as improved" true
    (r.Compare.verdict = Compare.Improved);
  Alcotest.(check bool) "change near -33%" true
    (r.Compare.change_pct < -25. && r.Compare.change_pct > -45.)

let test_noise_floor_suppresses_small_drift () =
  (* a 1 % drift measured so precisely it is statistically unambiguous
     must still come back Unchanged: the floor is a magnitude
     requirement, not a confidence one *)
  let rng = Rng.of_seed 17 in
  let base = jittered rng ~center:1000. ~spread:0.002 ~n:200 in
  let cand = jittered rng ~center:1010. ~spread:0.002 ~n:200 in
  let r = Compare.samples policy ~unit_label:"ns" ~name:"drift" ~base ~cand in
  Alcotest.(check bool)
    (Printf.sprintf "p=%.2e yet verdict stays unchanged" r.Compare.p)
    true
    (r.Compare.verdict = Compare.Unchanged);
  Alcotest.(check bool) "the drift itself is real" true
    (r.Compare.p < 0.01 && r.Compare.change_pct > 0.5)

let test_compare_files_set_difference () =
  let rng = Rng.of_seed 19 in
  let s () = jittered rng ~center:100. ~spread:0.05 ~n:20 in
  let base = mk_file [ ("shared", s ()); ("lost", s ()) ] in
  let cand = mk_file [ ("shared", s ()); ("new", s ()) ] in
  let c = Compare.files policy ~base ~cand in
  Alcotest.(check (list string)) "compared" [ "shared" ]
    (List.map (fun (r : Compare.result) -> r.Compare.name) c.Compare.results);
  Alcotest.(check (list string)) "only base" [ "lost" ] c.Compare.only_base;
  Alcotest.(check (list string)) "only cand" [ "new" ] c.Compare.only_cand

let test_short_series_can_regress () =
  (* two 3-run samples cannot reach p < 0.01, so the verdict rests on
     the noise floor and disjoint intervals: every candidate run beyond
     every baseline run flags, one overlapping run does not *)
  let base = [| 100.; 104.; 110. |] in
  let vs cand = Compare.samples policy ~unit_label:"ns" ~name:"short" ~base ~cand in
  let r = vs (Array.map (( *. ) 3.) base) in
  Alcotest.(check bool) (Printf.sprintf "p=%.3f above alpha" r.Compare.p) true
    (r.Compare.p > policy.Compare.alpha);
  Alcotest.(check bool) "x3 on 3 runs flags" true (r.Compare.verdict = Compare.Regressed);
  Alcotest.(check bool) "an overlapping run keeps it unchanged" true
    ((vs [| 105.; 300.; 330. |]).Compare.verdict = Compare.Unchanged);
  Alcotest.(check bool) "a 3-run speedup flags" true
    ((vs (Array.map (( *. ) 0.3) base)).Compare.verdict = Compare.Improved)

let test_render_mentions_verdicts () =
  let rng = Rng.of_seed 23 in
  let base = jittered rng ~center:1000. ~spread:0.05 ~n:50 in
  let cand = jittered rng ~center:1500. ~spread:0.05 ~n:50 in
  let r = Compare.samples policy ~unit_label:"ns" ~name:"hot path" ~base ~cand in
  let table = Compare.render [ r ] in
  Alcotest.(check bool) "names the benchmark" true (contains ~needle:"hot path" table);
  Alcotest.(check bool) "shouts the regression" true (contains ~needle:"REGRESSED" table);
  (* a memory series prints in MB, not as a time *)
  let mb = 1048576. in
  let r =
    Compare.samples policy ~unit_label:"bytes" ~name:"rss_peak_mb"
      ~base:[| 44.76 *. mb; 44.76 *. mb |] ~cand:[| 45.5 *. mb; 45.5 *. mb |]
  in
  let table = Compare.render [ r ] in
  Alcotest.(check bool) "bytes print as MB" true (contains ~needle:"44.76 MB" table);
  Alcotest.(check bool) "not as a time" false (contains ~needle:" ms" table)

(* --- Gate ----------------------------------------------------------------- *)

let gate_policy = { Gate.compare = policy; max_regression_pct = 25. }

let test_gate_fails_on_regression () =
  let rng = Rng.of_seed 29 in
  let base = mk_file [ ("hot", jittered rng ~center:1000. ~spread:0.05 ~n:50) ] in
  let cand = mk_file [ ("hot", jittered rng ~center:1500. ~spread:0.05 ~n:50) ] in
  let o = Gate.run gate_policy ~base ~cand in
  Alcotest.(check bool) "gate fails" false (Gate.passed o);
  Alcotest.(check (list string)) "failure names the benchmark" [ "hot" ]
    (List.map (fun (r : Compare.result) -> r.Compare.name) o.Gate.failures);
  Alcotest.(check bool) "render says FAIL" true
    (contains ~needle:"perf gate: FAIL" (Gate.render o))

let test_gate_tolerates_capped_regression () =
  (* a confirmed regression below max_regression_pct is reported in
     the table but does not fail the gate *)
  let rng = Rng.of_seed 31 in
  let base = mk_file [ ("warm", jittered rng ~center:1000. ~spread:0.01 ~n:50) ] in
  let cand = mk_file [ ("warm", jittered rng ~center:1100. ~spread:0.01 ~n:50) ] in
  let o = Gate.run gate_policy ~base ~cand in
  Alcotest.(check bool) "10% < 25% cap passes" true (Gate.passed o);
  Alcotest.(check int) "no failures recorded" 0 (List.length o.Gate.failures)

let test_gate_passes_self_comparison () =
  let rng = Rng.of_seed 37 in
  let file =
    mk_file
      [
        ("a", jittered rng ~center:1000. ~spread:0.05 ~n:40);
        ("b", jittered rng ~center:5e6 ~spread:0.05 ~n:40);
      ]
  in
  let o = Gate.run gate_policy ~base:file ~cand:file in
  Alcotest.(check bool) "self comparison passes" true (Gate.passed o);
  Alcotest.(check bool) "render says PASS" true
    (contains ~needle:"perf gate: PASS" (Gate.render o))

let test_gate_fails_on_missing_benchmark () =
  let rng = Rng.of_seed 41 in
  let s () = jittered rng ~center:100. ~spread:0.05 ~n:20 in
  let base = mk_file [ ("kept", s ()); ("lost", s ()) ] in
  let cand = mk_file [ ("kept", s ()) ] in
  let o = Gate.run gate_policy ~base ~cand in
  Alcotest.(check bool) "lost benchmark fails the gate" false (Gate.passed o);
  Alcotest.(check (list string)) "missing is named" [ "lost" ] o.Gate.missing

let test_gate_fails_on_mode_mismatch () =
  let rng = Rng.of_seed 43 in
  let s () = jittered rng ~center:100. ~spread:0.05 ~n:20 in
  let base = mk_file ~mode:"quick" [ ("a", s ()) ] in
  let cand = mk_file ~mode:"full" [ ("a", s ()) ] in
  let o = Gate.run gate_policy ~base ~cand in
  Alcotest.(check bool) "quick vs full fails" false (Gate.passed o);
  Alcotest.(check (option (pair string string))) "mismatch recorded"
    (Some ("quick", "full")) o.Gate.mode_mismatch

let test_gate_host_mismatch_informational () =
  let rng = Rng.of_seed 47 in
  let s () = jittered rng ~center:100. ~spread:0.05 ~n:20 in
  let other = { host with Bench_file.hostname = "ci-runner-9" } in
  let base = mk_file [ ("a", s ()) ] in
  let cand = mk_file ~host:other [ ("a", s ()) ] in
  let o = Gate.run gate_policy ~base ~cand in
  Alcotest.(check bool) "different host still passes" true (Gate.passed o);
  Alcotest.(check bool) "but is reported" true (o.Gate.host_mismatch <> None);
  Alcotest.(check bool) "render notes it" true
    (contains ~needle:"hosts differ" (Gate.render o))

(* --- History -------------------------------------------------------------- *)

let test_history_load_and_series () =
  with_temp_dir (fun dir ->
      let write i median =
        Bench_file.write
          ~path:(Filename.concat dir (Bench_file.filename i))
          (mk_file ~commit:(Printf.sprintf "c%d" i)
             [ ("hot", [| median |]); (Printf.sprintf "only%d" i, [| 1. |]) ])
      in
      write 1 100.;
      write 2 120.;
      write 3 90.;
      (* a corrupt file must surface as an error, not poison the rest *)
      let oc = open_out (Filename.concat dir "BENCH_0004.json") in
      output_string oc "{ definitely not a bench file";
      close_out oc;
      let entries, errors = History.load ~dir in
      Alcotest.(check (list int)) "valid entries in order" [ 1; 2; 3 ]
        (List.map (fun (e : History.entry) -> e.History.index) entries);
      Alcotest.(check int) "one error" 1 (List.length errors);
      Alcotest.(check bool) "error names the file" true
        (contains ~needle:"BENCH_0004.json" (List.hd errors));
      Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
        "series follows the medians"
        [ (1., 100.); (2., 120.); (3., 90.) ]
        (History.series entries "hot");
      Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
        "sparse series only has its recordings" [ (2., 1.) ]
        (History.series entries "only2");
      Alcotest.(check (list string)) "names are the sorted union"
        [ "hot"; "only1"; "only2"; "only3" ]
        (History.names entries);
      let table = History.trend_table entries in
      Alcotest.(check bool) "table names the benchmark" true (contains ~needle:"hot" table);
      Alcotest.(check bool) "table shows the net change" true
        (contains ~needle:"-10.0%" table);
      let plot = History.trend_plot ~width:40 ~height:10 ~only:[ "hot" ] entries in
      Alcotest.(check bool) "plot labels the axis" true
        (contains ~needle:"bench file index" plot))

let test_sparkline () =
  Alcotest.(check string) "empty" "" (History.sparkline []);
  Alcotest.(check string) "flat series" "---" (History.sparkline [ 5.; 5.; 5. ]);
  Alcotest.(check string) "singleton" "-" (History.sparkline [ 2. ]);
  let s = History.sparkline [ 0.; 50.; 100. ] in
  Alcotest.(check int) "one glyph per value" 3 (String.length s);
  Alcotest.(check char) "min maps to the low glyph" '_' s.[0];
  Alcotest.(check char) "max maps to the high glyph" '@' s.[2]

(* --- the committed baseline ----------------------------------------------- *)

(* dune runtest runs from _build/default/test (where the committed
   history is a declared dep one level up); dune exec from the project
   root — probe both so either invocation works *)
let history_file name =
  let candidates = [ "../bench/history/" ^ name; "bench/history/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let baseline_path = history_file "BENCH_0002.json"

(* The two baselines CI gates, at CI's cap: each passes against
   itself and fails on a x3 of any one series, a lost series, and a
   mode mix. *)
let test_ci_baselines_can_fail () =
  let ci_policy = { Gate.default_policy with Gate.max_regression_pct = 100. } in
  List.iter
    (fun file ->
      match Bench_file.read ~path:(history_file file) with
      | Error msg -> Alcotest.failf "%s invalid: %s" file msg
      | Ok base ->
        let gate cand = Gate.passed (Gate.run ci_policy ~base ~cand) in
        Alcotest.(check bool) (file ^ " passes against itself") true (gate base);
        List.iter
          (fun (b : Bench_file.benchmark) ->
            let slowed =
              List.map
                (fun (c : Bench_file.benchmark) ->
                  if c.name = b.name then { c with samples = Array.map (( *. ) 3.) c.samples }
                  else c)
                base.benchmarks
            in
            Alcotest.(check bool) (Printf.sprintf "%s: x3 %s fails" file b.name) false
              (gate { base with benchmarks = slowed }))
          base.benchmarks;
        Alcotest.(check bool) (file ^ ": a lost series fails") false
          (gate { base with benchmarks = List.tl base.benchmarks });
        Alcotest.(check bool) (file ^ ": a mode mix fails") false
          (gate { base with mode = base.mode ^ "-other" }))
    [ "BENCH_0005.json"; "BENCH_0006.json" ]

let test_committed_baseline_valid () =
  match Bench_file.read ~path:baseline_path with
  | Error msg -> Alcotest.failf "committed baseline invalid: %s" msg
  | Ok f ->
    Alcotest.(check bool) "has benchmarks" true (List.length f.Bench_file.benchmarks > 0);
    Alcotest.(check string) "recorded in quick mode" "quick" f.Bench_file.mode;
    List.iter
      (fun (b : Bench_file.benchmark) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s has samples" b.Bench_file.name)
          true
          (Array.length b.Bench_file.samples > 0))
      f.Bench_file.benchmarks;
    (* the gate's self-comparison contract holds on the real artifact *)
    let o = Gate.run Gate.default_policy ~base:f ~cand:f in
    Alcotest.(check bool) "baseline passes against itself" true (Gate.passed o)

let test_committed_baseline_renders () =
  match Bench_file.read ~path:baseline_path with
  | Error msg -> Alcotest.failf "committed baseline invalid: %s" msg
  | Ok f ->
    let entries = [ { History.index = 1; path = baseline_path; file = f } ] in
    let table = History.trend_table entries in
    List.iter
      (fun name ->
        Alcotest.(check bool) (Printf.sprintf "trend table rows %s" name) true
          (contains ~needle:name table))
      (Bench_file.names f)

let suite =
  [
    ("bench file schema round-trip", `Quick, test_schema_roundtrip);
    ("bench file validation", `Quick, test_of_json_validation);
    ("bench file naming", `Quick, test_filenames);
    ("history directory listing", `Quick, test_history_dir_listing);
    ("bootstrap confidence interval", `Quick, test_bootstrap_ci);
    ("identical samples unchanged", `Quick, test_compare_identical_unchanged);
    ("regression detected", `Quick, test_compare_regression_detected);
    ("improvement detected", `Quick, test_compare_improvement_detected);
    ("noise floor suppresses drift", `Quick, test_noise_floor_suppresses_small_drift);
    ("file comparison set difference", `Quick, test_compare_files_set_difference);
    ("comparison table renders", `Quick, test_render_mentions_verdicts);
    ("gate fails on 50% regression", `Quick, test_gate_fails_on_regression);
    ("gate tolerates capped regression", `Quick, test_gate_tolerates_capped_regression);
    ("gate passes self-comparison", `Quick, test_gate_passes_self_comparison);
    ("gate fails on missing benchmark", `Quick, test_gate_fails_on_missing_benchmark);
    ("gate fails on mode mismatch", `Quick, test_gate_fails_on_mode_mismatch);
    ("gate host mismatch informational", `Quick, test_gate_host_mismatch_informational);
    ("history load and series", `Quick, test_history_load_and_series);
    ("sparkline", `Quick, test_sparkline);
    ("committed baseline valid", `Quick, test_committed_baseline_valid);
    ("committed baseline renders", `Quick, test_committed_baseline_renders);
    ("short series can regress", `Quick, test_short_series_can_regress);
    ("CI baselines can fail", `Quick, test_ci_baselines_can_fail);
  ]
