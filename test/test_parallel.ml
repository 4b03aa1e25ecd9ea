(* The determinism and concurrency battery for lib/parallel and the
   capture layer of lib/obs.

   The contract under test (doc/PARALLELISM.md): for a fixed seed,
   results, metric totals and the trace stream are identical at any
   job count — scheduling decides when a task runs, never what it
   observes or the order its output lands. Wall-clock quantities
   (timer seconds, event timestamps) are exempt and never compared.

   Domain spawning is real here (the point is cross-domain safety), so
   workloads are kept small: a few dozen trials on double-digit
   graphs. *)

module Pool = Sf_parallel.Pool
module Shard = Sf_obs.Shard
module Counter = Sf_obs.Counter
module Timer = Sf_obs.Timer
module Histo = Sf_obs.Histo
module Registry = Sf_obs.Registry
module Trace = Sf_obs.Trace
module Flight = Sf_obs.Flight
module Trace_export = Sf_obs.Trace_export
module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Strategies = Sf_search.Strategies
module Searchability = Sf_core.Searchability

let with_sink sink body =
  let id = Trace.attach sink in
  Fun.protect ~finally:(fun () -> Trace.detach id) body

let collector acc =
  { Trace.descr = "test-collector"; emit = (fun e -> acc := e :: !acc); close = ignore }

let with_default_jobs j body =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) body

(* ---------------------------------------------------------------- *)
(* Pool mechanics                                                    *)
(* ---------------------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let r = Pool.mapi pool 100 (fun i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length r);
      Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v) r;
      let chunked = Pool.map_chunks pool ~chunk:7 100 (fun i -> i * i) in
      Alcotest.(check bool) "chunked map agrees" true (chunked = r);
      let mapped = Pool.map pool (fun s -> String.length s) [| "a"; "bb"; "ccc" |] in
      Alcotest.(check (array int)) "map over array" [| 1; 2; 3 |] mapped)

let test_sequential_fallback () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      let r = Pool.mapi pool 10 (fun i -> i + 1) in
      Alcotest.(check (array int)) "inline results" [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |] r);
  Alcotest.check_raises "jobs must be positive" (Invalid_argument "Pool.create: need jobs >= 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_exception_smallest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "smallest failing index wins" (Failure "task 5")
        (fun () ->
          ignore
            (Pool.mapi pool 16 (fun i ->
                 if i = 5 || i = 11 then failwith (Printf.sprintf "task %d" i) else i)));
      (* the pool survives a failed batch *)
      let r = Pool.mapi pool 4 (fun i -> i * 10) in
      Alcotest.(check (array int)) "pool reusable after failure" [| 0; 10; 20; 30 |] r)

let test_failed_batch_discards_obs () =
  let c = Counter.create () in
  Pool.with_pool ~jobs:4 (fun pool ->
      (try
         ignore
           (Pool.mapi pool 8 (fun i ->
                Counter.incr c;
                if i = 3 then failwith "boom"))
       with Failure _ -> ());
      Alcotest.(check int) "no shard of a failed batch is merged" 0 (Counter.value c))

let test_nested_pool_runs_inline () =
  let c = Counter.create () in
  let rows =
    Pool.with_pool ~jobs:2 (fun outer ->
        Pool.mapi outer 3 (fun i ->
            Pool.with_pool ~jobs:4 (fun inner ->
                let inner_sums =
                  Pool.mapi inner 4 (fun j ->
                      Counter.incr c;
                      (i * 4) + j)
                in
                (Pool.jobs inner, Array.fold_left ( + ) 0 inner_sums))))
  in
  Array.iteri
    (fun i (inner_jobs, sum) ->
      Alcotest.(check int) "nested pool degraded to jobs=1" 1 inner_jobs;
      Alcotest.(check int) "nested sum" ((i * 16) + 6) sum)
    rows;
  Alcotest.(check int) "nested increments all merged" 12 (Counter.value c)

let test_pool_rejects_use_after_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "shut-down pool refuses work"
    (Invalid_argument "Pool.map_chunks: pool is shut down") (fun () ->
      ignore (Pool.mapi pool 3 (fun i -> i)))

(* ---------------------------------------------------------------- *)
(* Shard capture under raw domains: the obs stress tests             *)
(* ---------------------------------------------------------------- *)

let test_shard_stress_counters_exact () =
  let n_domains = 4 and per_domain = 1_000 in
  let c = Counter.create () and h = Histo.create () and t = Timer.create () in
  let work d () =
    Shard.capture (fun () ->
        for i = 1 to per_domain do
          Counter.incr c;
          Histo.observe_int h ((d * per_domain) + i);
          Timer.time t (fun () -> ())
        done)
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (work d)) in
  let shards = List.map (fun dom -> snd (Domain.join dom)) domains in
  List.iter Shard.merge shards;
  let total = n_domains * per_domain in
  Alcotest.(check int) "counter total exact" total (Counter.value c);
  Alcotest.(check int) "histogram count exact" total (Histo.count h);
  Alcotest.(check (float 1e-9)) "histogram sum exact"
    (float_of_int (total * (total + 1) / 2))
    (Histo.sum h);
  Alcotest.(check (float 1e-9)) "histogram min" 1. (Histo.min_value h);
  Alcotest.(check (float 1e-9)) "histogram max" (float_of_int total) (Histo.max_value h);
  Alcotest.(check int) "timer interval count exact" total (Timer.count t)

let test_shard_stress_trace_sink () =
  let n_domains = 4 and per_domain = 250 in
  let acc = ref [] in
  let flight = Flight.create ~capacity:32 () in
  with_sink (collector acc) (fun () ->
      with_sink (Flight.sink flight) (fun () ->
          let work d () =
            Shard.capture (fun () ->
                for i = 1 to per_domain do
                  Trace.instant "stress.tick"
                    ~args:[ ("domain", Trace.Int d); ("i", Trace.Int i) ]
                done)
          in
          let domains = List.init n_domains (fun d -> Domain.spawn (work d)) in
          let shards = List.map (fun dom -> snd (Domain.join dom)) domains in
          List.iter Shard.merge shards));
  let events = List.rev !acc in
  let total = n_domains * per_domain in
  Alcotest.(check int) "every buffered event reached the sink" total (List.length events);
  (* sequence numbers are assigned at merge time: gap-free, ascending *)
  let seqs = List.map (fun e -> e.Trace.seq) events in
  let rec gap_free = function
    | a :: (b :: _ as rest) -> a + 1 = b && gap_free rest
    | _ -> true
  in
  Alcotest.(check bool) "seq gap-free and ascending" true (gap_free seqs);
  (* the ring held the last [capacity] events and never corrupted *)
  Alcotest.(check int) "flight saw everything" total (Flight.seen flight);
  let ring = Flight.events flight in
  Alcotest.(check int) "ring keeps capacity" 32 (List.length ring);
  let last_32 =
    List.filteri (fun i _ -> i >= total - 32) events |> List.map (fun e -> e.Trace.seq)
  in
  Alcotest.(check (list int)) "ring holds exactly the newest events" last_32
    (List.map (fun e -> e.Trace.seq) ring);
  (* the Perfetto export of a concurrently-emitted stream stays valid *)
  let doc = Trace_export.perfetto_json events in
  match Test_trace.parse_json doc with
  | Sf_perf.Json.Obj fields ->
    Alcotest.(check bool) "perfetto doc has traceEvents" true
      (List.mem_assoc "traceEvents" fields)
  | _ -> Alcotest.fail "perfetto export is not a JSON object"

let test_gauge_last_write_by_index () =
  let g = Registry.gauge "test.parallel.gauge" in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore (Pool.mapi pool 32 (fun i -> Registry.set_gauge g (float_of_int i))));
  Alcotest.(check (float 1e-9)) "last write decided by task index" 31. (Registry.gauge_value g)

(* ---------------------------------------------------------------- *)
(* Rng.split_at under domains                                        *)
(* ---------------------------------------------------------------- *)

let prop_split_at_same_across_domains =
  QCheck.Test.make ~name:"Rng.split_at children identical across domains" ~count:25
    QCheck.(pair small_int (int_range 1 48))
    (fun (seed, k) ->
      let parent = Rng.of_seed seed in
      let fp0 = Rng.state_fingerprint parent in
      let derive () = Array.init k (fun i -> Rng.state_fingerprint (Rng.split_at parent i)) in
      let sequential = derive () in
      let domains = List.init 3 (fun _ -> Domain.spawn derive) in
      let parallel = List.map Domain.join domains in
      Rng.state_fingerprint parent = fp0 && List.for_all (fun a -> a = sequential) parallel)

let prop_split_at_same_through_pool =
  QCheck.Test.make ~name:"Rng.split_at children identical through the pool" ~count:25
    QCheck.(pair small_int (int_range 1 48))
    (fun (seed, k) ->
      let parent = Rng.of_seed seed in
      let fp0 = Rng.state_fingerprint parent in
      let sequential = Array.init k (fun i -> Rng.state_fingerprint (Rng.split_at parent i)) in
      let pooled =
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.mapi pool k (fun i -> Rng.state_fingerprint (Rng.split_at parent i)))
      in
      Rng.state_fingerprint parent = fp0 && pooled = sequential)

(* ---------------------------------------------------------------- *)
(* Searchability.measure: byte-identical output at any job count     *)
(* ---------------------------------------------------------------- *)

(* small Mori trees, two strategies, five trials per cell: enough to
   exercise every merge path while spawning real domains *)
let grid_spec = { Searchability.default_spec with Searchability.trials = 5 }

let grid_csv ~jobs =
  let master = Rng.of_seed 2007 in
  let make rng n = (Ugraph.of_digraph (Sf_gen.Mori.tree rng ~p:0.5 ~t:n), n) in
  let points =
    Searchability.measure ~jobs master ~make
      ~strategies:[ Strategies.bfs; Strategies.high_degree ]
      ~sizes:[ 60; 90 ] ~spec:grid_spec
  in
  Searchability.points_to_csv points

(* the golden digest pins today's bytes, like the run_traced one: a
   change here means either the PRNG stream layout or the aggregation
   changed — both are breaking changes for reproducibility *)
let grid_csv_digest = "12c7ed4284945390e2d185a134d18048"

let test_measure_identical_across_jobs () =
  let csv1 = grid_csv ~jobs:1 in
  let csv2 = grid_csv ~jobs:2 in
  let csv4 = grid_csv ~jobs:4 in
  Alcotest.(check string) "jobs=2 byte-identical to jobs=1" csv1 csv2;
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" csv1 csv4;
  Alcotest.(check string) "golden digest" grid_csv_digest
    (Digest.to_hex (Digest.string csv1))

let test_measure_metrics_identical_across_jobs () =
  let requests = Registry.counter "search.requests" in
  let runs = Registry.counter "search.runs" in
  let histo = Registry.histo "search.requests_per_run" in
  let run ~jobs =
    let req0 = Counter.value requests and runs0 = Counter.value runs in
    let hc0 = Histo.count histo and hs0 = Histo.sum histo in
    ignore (grid_csv ~jobs);
    ( Counter.value requests - req0,
      Counter.value runs - runs0,
      Histo.count histo - hc0,
      Histo.sum histo -. hs0 )
  in
  let r1, n1, hc1, hs1 = run ~jobs:1 in
  let r4, n4, hc4, hs4 = run ~jobs:4 in
  Alcotest.(check bool) "some requests were counted" true (r1 > 0);
  Alcotest.(check int) "request total identical" r1 r4;
  Alcotest.(check int) "run count identical" n1 n4;
  Alcotest.(check int) "histogram count identical" hc1 hc4;
  Alcotest.(check (float 1e-9)) "histogram sum identical" hs1 hs4

(* compare everything deterministic about an event; ts is wall-clock
   and exempt *)
let event_fingerprint base e =
  Printf.sprintf "%d %s %s %s" (e.Trace.seq - base) e.Trace.name
    (Trace.kind_tag e.Trace.kind)
    (String.concat ","
       (List.map (fun (k, v) -> k ^ "=" ^ Trace.arg_to_string v) e.Trace.args))

let test_measure_trace_identical_across_jobs () =
  let stream ~jobs =
    let acc = ref [] in
    with_sink (collector acc) (fun () -> ignore (grid_csv ~jobs));
    match List.rev !acc with
    | [] -> Alcotest.fail "no events collected"
    | first :: _ as events -> List.map (event_fingerprint first.Trace.seq) events
  in
  let s1 = stream ~jobs:1 in
  let s4 = stream ~jobs:4 in
  Alcotest.(check int) "same event count" (List.length s1) (List.length s4);
  List.iter2 (fun a b -> Alcotest.(check string) "event identical" a b) s1 s4

let test_measure_rejects_bad_budget () =
  let master = Rng.of_seed 1 in
  let make rng n = (Ugraph.of_digraph (Sf_gen.Mori.tree rng ~p:0.5 ~t:n), n) in
  let spec = { grid_spec with Searchability.budget = (fun _ -> 0) } in
  Alcotest.check_raises "non-positive budget rejected"
    (Invalid_argument "Searchability.measure: budget must be positive (got 0 for n = 50)")
    (fun () ->
      ignore
        (Searchability.measure ~jobs:1 master ~make ~strategies:[ Strategies.bfs ]
           ~sizes:[ 50 ] ~spec))

(* ---------------------------------------------------------------- *)
(* The experiment fan-out: sfexp-level byte identity                 *)
(* ---------------------------------------------------------------- *)

let test_experiments_identical_across_jobs () =
  let entries =
    List.filter_map Sf_experiments.Registry.find [ "T1"; "T5" ]
  in
  Alcotest.(check int) "both test experiments found" 2 (List.length entries);
  let outputs jobs =
    with_default_jobs jobs (fun () ->
        Sf_experiments.Registry.run_all ~quick:true ~seed:7 entries
        |> List.map (fun ((e : Sf_experiments.Registry.entry), result, _elapsed) ->
               ( e.Sf_experiments.Registry.id,
                 result.Sf_experiments.Exp.output,
                 result.Sf_experiments.Exp.checks )))
  in
  let o1 = outputs 1 in
  let o2 = outputs 2 in
  let o4 = outputs 4 in
  Alcotest.(check bool) "jobs=2 identical to jobs=1" true (o1 = o2);
  Alcotest.(check bool) "jobs=4 identical to jobs=1" true (o1 = o4)

let suite =
  [
    Alcotest.test_case "pool map preserves order" `Quick test_map_order;
    Alcotest.test_case "pool sequential fallback" `Quick test_sequential_fallback;
    Alcotest.test_case "pool exception: smallest index wins" `Quick
      test_exception_smallest_index;
    Alcotest.test_case "pool failed batch discards obs" `Quick test_failed_batch_discards_obs;
    Alcotest.test_case "nested pool runs inline" `Quick test_nested_pool_runs_inline;
    Alcotest.test_case "pool shutdown is final" `Quick test_pool_rejects_use_after_shutdown;
    Alcotest.test_case "shard stress: metric totals exact" `Quick
      test_shard_stress_counters_exact;
    Alcotest.test_case "shard stress: trace sink and flight ring" `Quick
      test_shard_stress_trace_sink;
    Alcotest.test_case "gauge last-write decided by index" `Quick
      test_gauge_last_write_by_index;
    QCheck_alcotest.to_alcotest prop_split_at_same_across_domains;
    QCheck_alcotest.to_alcotest prop_split_at_same_through_pool;
    Alcotest.test_case "measure identical across jobs (golden)" `Slow
      test_measure_identical_across_jobs;
    Alcotest.test_case "measure metrics identical across jobs" `Slow
      test_measure_metrics_identical_across_jobs;
    Alcotest.test_case "measure trace identical across jobs" `Slow
      test_measure_trace_identical_across_jobs;
    Alcotest.test_case "measure rejects non-positive budget" `Quick
      test_measure_rejects_bad_budget;
    Alcotest.test_case "experiments identical across jobs" `Slow
      test_experiments_identical_across_jobs;
  ]
