(* The fabric workload: one `sffabric run` with two worker processes
   over a Móri grid (sizes 4096, 16384, 65536 x high-degree, bfs,
   s-high-degree, neighbour metric). Every trial generates a fresh
   graph, so the Gen, Ckpt, Proto and Swarm layers work here and the
   serve Wire and Server layers do not.

   Workers checkpoint after every trial (--ckpt-every 1) and the
   coordinator prints one --progress record per durable trial,
   "shard S K/N". This process timestamps those records as they
   arrive on the coordinator's stderr: the interval between records K-1
   and K of one shard is trial K's latency as the fabric's user sees it.

   Correctness: 32 sampled tasks re-run in-process through
   Searchability.run_grid_task must equal the shard checkpoints, and
   the md5 of measure.csv must equal that of the CSV that
   Searchability.aggregate builds from Coordinator.merge. *)

module Fab = Sf_fabric
module S = Sf_core.Searchability
module Rng = Sf_prng.Rng
module Oracle = Sf_search.Oracle
module Runner = Sf_search.Runner
module Strategy = Sf_search.Strategy
module R = Report

let name = "fabric_grid"
let sizes = [ 4096; 16384; 65536 ]
let strategies = [ "high-degree"; "bfs"; "s-high-degree" ]
let workers = 2

(* A flat budget of 4096 requests per trial: the default 4n lets a few
   trials at n = 65536 run for 262144 requests, and those few set the
   grid's wall time, which then differs by a third between seeds. *)
let budget = 4096

(* 90 to 130 trials/s on two workers of a 2-core host: trials per cell
   sized so the grid runs for about [seconds]. *)
let trials env = if env.Util.smoke then 4 else max 4 (int_of_float (env.Util.seconds *. 10.5))

type progress = { shard : int; done_ : int; at : float }

(* "... — shard S K/N" *)
let parse_record s =
  match Util.from_last s "shard " with
  | None -> None
  | Some tail -> (
    try Scanf.sscanf tail "shard %d %d/%d" (fun a b _ -> Some (a, b))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* Read the coordinator's stderr until EOF, timestamping each progress
   record. Each record is written and flushed whole. *)
let read_progress fd =
  let buf = Bytes.create 65536 in
  let out = ref [] and carry = ref "" in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      let at = Util.now () in
      let text = !carry ^ Bytes.sub_string buf 0 k in
      let pieces = String.split_on_char '\r' text in
      carry := "";
      List.iteri
        (fun i piece ->
          match parse_record piece with
          | Some (shard, done_) -> out := { shard; done_; at } :: !out
          | None -> if i = List.length pieces - 1 then carry := piece)
        pieces;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  List.rev !out

type grid_run = {
  wall_s : float;
  first_s : float;  (** exec until the first durable trial *)
  records : progress list;
  cpu_s : float;  (** coordinator and reaped workers *)
  hwm_kb : int;  (** largest VmHWM of the coordinator or a worker *)
  status : Unix.process_status;
}

let run_grid env ~dir ~log ~sizes ~strategies ~trials =
  Util.rm_rf dir;
  let argv =
    [| Util.bin env "sffabric"; "run"; "--dir"; dir; "--workers"; string_of_int workers; "--sizes";
       String.concat "," (List.map string_of_int sizes); "--strategies"; String.concat "," strategies;
       "--trials"; string_of_int trials; "--metric"; "neighbor"; "--budget-mul"; "0"; "--budget-add";
       string_of_int budget; "--seed"; string_of_int env.Util.seed; "--ckpt-every"; "1"; "--progress";
       "--quiet" |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let tms0 = Unix.times () in
  let t0 = Util.now () in
  let pid = Fun.protect ~finally:(fun () -> Unix.close wr) (fun () -> Util.spawn ~log ~err:wr argv) in
  let records = ref [] in
  let reader = Thread.create (fun () -> records := read_progress rd) () in
  let hwm = ref 0 and running = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get running do
          List.iter (fun p -> hwm := max !hwm (Util.hwm_kb p)) (pid :: Util.children pid);
          Thread.delay 0.05
        done)
      ()
  in
  let status = Util.wait ~timeout:170. pid in
  let wall_s = Util.now () -. t0 in
  Atomic.set running false;
  Thread.join sampler;
  Thread.join reader;
  Unix.close rd;
  let tms1 = Unix.times () in
  let cpu_s =
    tms1.Unix.tms_cutime +. tms1.Unix.tms_cstime -. tms0.Unix.tms_cutime -. tms0.Unix.tms_cstime
  in
  let first_s = match !records with r :: _ -> r.at -. t0 | [] -> wall_s in
  { wall_s; first_s; records = !records; cpu_s; hwm_kb = !hwm; status }

(* Per-trial latency: the interval between consecutive durable-trial
   records of one shard (the first trial of a shard has no start). *)
let trial_latencies records =
  let by_shard = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace by_shard p.shard
        (p :: Option.value (Hashtbl.find_opt by_shard p.shard) ~default:[]))
    records;
  Hashtbl.fold
    (fun _ ps acc ->
      let ps = List.sort (fun a b -> compare a.done_ b.done_) ps in
      let rec pairs acc = function
        | a :: (b :: _ as rest) when b.done_ = a.done_ + 1 -> pairs ((b.at -. a.at) :: acc) rest
        | _ :: rest -> pairs acc rest
        | [] -> acc
      in
      pairs acc ps)
    by_shard []
  |> Array.of_list

let shard_of (plan : Fab.Grid.plan) task =
  let found = ref (-1) in
  Array.iteri (fun i (lo, hi) -> if lo <= task && task < hi then found := i) plan.Fab.Grid.p_shards;
  !found

(* ---- in-process replay of sampled tasks ---------------------------- *)

type ctx = {
  plan : Fab.Grid.plan;
  spec : Fab.Grid.spec;
  cspec : S.spec;
  master : Rng.t;
  make : Rng.t -> int -> Sf_graph.Ugraph.t * int;
  strats : Strategy.t array;
  sizes_a : int array;
  ckpts : Fab.Ckpt.t array;
}

let cell_of ctx task =
  let n_strats = Array.length ctx.strats in
  let cell = task / ctx.spec.Fab.Grid.gs_trials and trial = task mod ctx.spec.Fab.Grid.gs_trials in
  (cell / n_strats, cell mod n_strats, trial)

let ckpt_outcome ctx task =
  let shard = shard_of ctx.plan task in
  let c = ctx.ckpts.(shard) in
  c.Fab.Ckpt.c_outcomes.(task - c.Fab.Ckpt.c_lo)

(* A worker's Progress body: the shard's durable trial count. *)
let progress_body k =
  let b = Buffer.create 8 in
  Sf_store.Varint.write b k;
  Buffer.contents b

(* Searchability.run_trial, one public call at a time, followed by the
   per-trial work of a worker: the checkpoint rewrite and the Progress
   frame to the coordinator. *)
let replay_task ?spans ?(acc : Spans.counts option) ctx ~scratch task =
  let span name f = match spans with None -> f () | Some sp -> Spans.with_span sp name ~id:task f in
  span "fabric.trial" (fun () ->
      let size_idx, strat_idx, trial = cell_of ctx task in
      let n = ctx.sizes_a.(size_idx) and strategy = ctx.strats.(strat_idx) in
      let rng = S.trial_rng ctx.master ~size_idx ~strat_idx ~trial in
      let g, target = span "gen.graph" (fun () -> ctx.make rng n) in
      let source = if target = 1 && Sf_graph.Ugraph.n_vertices g > 1 then 2 else 1 in
      let w0 = if acc = None then 0. else Util.allocated_words () in
      let oracle =
        span "oracle.setup" (fun () -> Oracle.start ~rng strategy.Strategy.model g ~source ~target)
      in
      Option.iter
        (fun a -> a.Spans.alloc_words <- a.Spans.alloc_words +. Util.allocated_words () -. w0)
        acc;
      let o =
        span "search.step" (fun () ->
            Runner.run ~budget:(ctx.cspec.S.budget n) ~stop_at:Runner.At_neighbor ~rng strategy oracle)
      in
      Option.iter (fun a -> a.Spans.requests <- a.Spans.requests + o.Runner.total_requests) acc;
      let outcome =
        match o.Runner.to_neighbor with
        | Some r -> (float_of_int r, false, o.Runner.gave_up)
        | None -> (float_of_int o.Runner.total_requests, true, o.Runner.gave_up)
      in
      let shard = shard_of ctx.plan task in
      let c = ctx.ckpts.(shard) in
      let next = task + 1 in
      span "fabric.ckpt_write" (fun () ->
          Fab.Ckpt.write ~path:scratch
            { c with Fab.Ckpt.c_next = next;
                     c_outcomes = Array.sub c.Fab.Ckpt.c_outcomes 0 (next - c.Fab.Ckpt.c_lo) });
      let body = progress_body (next - c.Fab.Ckpt.c_lo) in
      let frame =
        span "wire.encode" (fun () ->
            Fab.Proto.frame (Fab.Proto.encode (Fab.Proto.Progress { job = shard; body })))
      in
      span "wire.decode" (fun () ->
          match Fab.Proto.pop frame ~pos:0 with
          | `Frame (payload, _) -> ignore (Fab.Proto.decode payload)
          | `Need_more | `Bad _ -> failwith "replay: bad Progress frame");
      outcome)

(* [m] distinct trials of every cell, from the seed. *)
let stratified ctx ~seed ~m =
  let t = ctx.spec.Fab.Grid.gs_trials in
  let m = min m t in
  let rng = Rng.split_at (Rng.of_seed seed) 4 in
  let cells = Array.length ctx.sizes_a * Array.length ctx.strats in
  List.concat
    (List.init cells (fun cell ->
         let picked = Hashtbl.create m in
         while Hashtbl.length picked < m do
           Hashtbl.replace picked (Rng.int rng t) ()
         done;
         List.sort compare (List.of_seq (Hashtbl.to_seq_keys picked))
         |> List.map (fun trial -> (cell * t) + trial)))

(* Framed bytes of every Proto message the run exchanged, per trial:
   Hello and Quit per worker, Assign and Done per shard, one Progress
   per durable trial. *)
let proto_bytes_per_trial ctx =
  let size msg = String.length (Fab.Proto.frame (Fab.Proto.encode msg)) in
  let total = ref (workers * (size (Fab.Proto.Hello 1_000_000) + size Fab.Proto.Quit)) in
  Array.iteri
    (fun shard (lo, hi) ->
      total :=
        !total
        + size (Fab.Proto.Assign { job = shard; body = Fab.Relay.assign_body ~trace:false })
        + size (Fab.Proto.Done { job = shard; body = "" });
      for k = 1 to hi - lo do
        total := !total + size (Fab.Proto.Progress { job = shard; body = progress_body k })
      done)
    ctx.plan.Fab.Grid.p_shards;
  float_of_int !total /. float_of_int (Fab.Grid.n_tasks ctx.spec)

(* ---- one run ------------------------------------------------------- *)

let run env ~spans_out =
  let r = R.create name in
  let log = Util.in_work env "fabric_grid.log" in
  (* set-up: exec of sffabric until the first durable trial of a
     one-cell, two-trial grid, several times *)
  let setups = if env.Util.smoke then 1 else 25 in
  let setup_times =
    Array.init setups (fun k ->
        let dir = Util.in_work env (Printf.sprintf "fabric-setup-%d" k) in
        let g =
          run_grid env ~dir ~log ~sizes:[ List.hd sizes ] ~strategies:[ List.hd strategies ] ~trials:2
        in
        if not (Util.status_ok g.status) then failwith ("sffabric set-up run: " ^ Util.describe g.status);
        Util.rm_rf dir;
        g.first_s)
  in
  R.add ~n:setups r "setup_s" (Util.median setup_times) "s";
  let dir = Util.in_work env "fabric" in
  let trials = trials env in
  let g = run_grid env ~dir ~log ~sizes ~strategies ~trials in
  if not (Util.status_ok g.status) then failwith ("sffabric: " ^ Util.describe g.status ^ ", log in " ^ log);
  let plan, grid_crc = Fab.Coordinator.load ~dir in
  let spec = plan.Fab.Grid.p_spec in
  let n_tasks = Fab.Grid.n_tasks spec in
  let ctx =
    { plan; spec; cspec = Fab.Grid.core_spec spec; master = Rng.of_seed spec.Fab.Grid.gs_seed;
      make = Fab.Grid.make_of_spec spec; strats = Array.of_list (Fab.Grid.strategies_of_spec spec);
      sizes_a = Array.of_list spec.Fab.Grid.gs_sizes;
      ckpts = Array.init (Array.length plan.Fab.Grid.p_shards) (fun i ->
          Fab.Ckpt.load ~path:(Fab.Grid.shard_path dir i)) }
  in
  r.R.attempted <- n_tasks;
  let complete = Array.for_all Fab.Ckpt.complete ctx.ckpts in
  r.R.failed <- (if complete then 0 else n_tasks);
  (* end to end *)
  let lat = trial_latencies g.records in
  R.add ~n:n_tasks r "throughput_per_s" (float_of_int n_tasks /. g.wall_s) "1/s";
  R.add_pct r "latency_p50_ms" lat 0.5 ~scale:1e3 "ms";
  R.add_pct r "latency_p99_ms" lat 0.99 ~scale:1e3 "ms";
  R.add ~n:n_tasks r "cpu_ms_per_op" (g.cpu_s *. 1e3 /. float_of_int n_tasks) "ms";
  R.add r "rss_peak_mb" (float_of_int g.hwm_kb /. 1024.) "MB";
  R.add r "fabric.wall_s" g.wall_s "s";
  let spawned, deaths =
    let text = Util.read_file log in
    match Util.from_last text "fabric: " with
    | None -> (0, 0)
    | Some tail -> (
      try Scanf.sscanf tail "fabric: %d shards done (%d spawned, %d deaths" (fun _ s d -> (s, d))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> (0, 0))
  in
  R.add r "fabric.deaths" (float_of_int deaths) "count";
  R.add r "fail_pct" (100. *. float_of_int deaths /. float_of_int (max 1 spawned)) "%";
  (* correctness *)
  let check_rng = Rng.split_at (Rng.of_seed env.Util.seed) 3 in
  let sampled = List.init (min 32 n_tasks) (fun _ -> Rng.int check_rng n_tasks) in
  let mismatches =
    List.filter
      (fun task ->
        S.run_grid_task ctx.master ~spec:ctx.cspec ~make:ctx.make ~strategies:ctx.strats
          ~sizes:ctx.sizes_a task
        <> ckpt_outcome ctx task)
      sampled
  in
  R.check r "sampled_tasks" (complete && mismatches = [])
    (Printf.sprintf "%d of %d sampled tasks differ from the checkpoints" (List.length mismatches)
       (List.length sampled));
  let merged, _ = Fab.Coordinator.merge ~dir ~grid_crc plan in
  let csv =
    S.points_to_csv
      (S.aggregate ~sizes:spec.Fab.Grid.gs_sizes ~strategies:spec.Fab.Grid.gs_strategies
         ~spec:ctx.cspec merged)
  in
  let md5_file = Digest.to_hex (Digest.file (Fab.Grid.csv_path dir)) in
  let md5_merge = Digest.to_hex (Digest.string csv) in
  R.check r "measure_csv_md5" (md5_file = md5_merge)
    (Printf.sprintf "measure.csv %s, merge %s" md5_file md5_merge);
  if env.Util.traced then begin
    let scratch = Util.in_work env "fabric-replay.ckpt" in
    let tasks = stratified ctx ~seed:env.Util.seed ~m:(if env.Util.smoke then 1 else 16) in
    let count = float_of_int (List.length tasks) in
    (* each task untraced then traced, back to back, so the pair runs at
       the same host speed *)
    let spans = Spans.create () in
    let acc = Spans.counts () in
    let plain_s = ref 0. and traced_s = ref 0. and alloc = ref 0. and major = ref 0 in
    let trial_s = Hashtbl.create 16 in
    let bad =
      List.filter
        (fun task ->
          let w0 = Util.allocated_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
          let t = Util.now () in
          let plain = replay_task ctx ~scratch task in
          let dt = Util.now () -. t in
          alloc := !alloc +. Util.allocated_words () -. w0;
          major := !major + (Gc.quick_stat ()).Gc.major_collections - m0;
          plain_s := !plain_s +. dt;
          let size_idx, strat_idx, _ = cell_of ctx task in
          let key = (size_idx, strat_idx) in
          Hashtbl.replace trial_s key (dt :: Option.value (Hashtbl.find_opt trial_s key) ~default:[]);
          let t = Util.now () in
          let traced = replay_task ~spans ~acc ctx ~scratch task in
          traced_s := !traced_s +. Util.now () -. t;
          plain <> ckpt_outcome ctx task || traced <> plain)
        tasks
    in
    R.check r "replayed_tasks" (bad = [])
      (Printf.sprintf "%d of %d replayed tasks differ from the checkpoints" (List.length bad)
         (List.length tasks));
    Array.iteri
      (fun i _ ->
        ignore
          (Spans.with_span spans "fabric.ckpt_load" ~id:i (fun () ->
               Fab.Ckpt.load ~path:(Fab.Grid.shard_path dir i))))
      plan.Fab.Grid.p_shards;
    ignore (Spans.with_span spans "fabric.merge" ~id:0 (fun () -> Fab.Coordinator.merge ~dir ~grid_crc plan));
    Util.rm_rf scratch;
    let d name = Spans.durations spans name in
    R.add_pct r "oracle.setup_us_p50" (d "oracle.setup") 0.5 ~scale:1e6 "us";
    R.add_pct r "oracle.setup_us_p90" (d "oracle.setup") 0.9 ~scale:1e6 "us";
    R.add r "oracle.setup_alloc_kb" (acc.Spans.alloc_words *. 8. /. 1024. /. count) "kB";
    let step_s = Util.sum (d "search.step") in
    R.add r "oracle.ns_per_request" (step_s *. 1e9 /. float_of_int (max 1 acc.Spans.requests)) "ns";
    R.add_pct r "search.step_us_p50" (d "search.step") 0.5 ~scale:1e6 "us";
    R.add_pct r "search.step_us_p90" (d "search.step") 0.9 ~scale:1e6 "us";
    R.add r "gc.alloc_mb_per_op" (!alloc *. 8. /. 1048576. /. count) "MB";
    R.add r "gc.major_per_kop" (float_of_int !major *. 1000. /. count) "count";
    R.add_pct r "gen.graph_ms" (d "gen.graph") 0.5 ~scale:1e3 "ms";
    R.add_pct r "wire.decode_us" (d "wire.decode") 0.5 ~scale:1e6 "us";
    R.add_pct r "wire.encode_us" (d "wire.encode") 0.5 ~scale:1e6 "us";
    R.add r "wire.bytes_per_op" (proto_bytes_per_trial ctx) "B";
    let self = Spans.self_by_name spans in
    let self_of name = Option.value (Hashtbl.find_opt self name) ~default:0. in
    let total = Util.sum (d "fabric.trial") in
    R.add r "share.oracle.setup" (self_of "oracle.setup" /. total) "ratio";
    R.add r "share.search.step" (self_of "search.step" /. total) "ratio";
    R.add r "share.wire" ((self_of "wire.decode" +. self_of "wire.encode") /. total) "ratio";
    R.add r "share.gen" (self_of "gen.graph" /. total) "ratio";
    R.add r "share.ckpt" (self_of "fabric.ckpt_write" /. total) "ratio";
    R.add r "trace.overhead_pct" ((!traced_s -. !plain_s) /. !plain_s *. 100.) "%";
    R.add ~n:(List.length tasks) r "oracle.requests_per_query"
      (float_of_int acc.Spans.requests /. count) "count";
    let found = Array.fold_left (fun a (_, trunc, _) -> if trunc then a else a + 1) 0 merged in
    R.add ~n:n_tasks r "search.found_ratio" (float_of_int found /. float_of_int n_tasks) "ratio";
    let over_sqrt = ref 0. in
    Array.iteri
      (fun task (cost, _, _) ->
        let size_idx, _, _ = cell_of ctx task in
        over_sqrt := !over_sqrt +. (cost /. sqrt (float_of_int ctx.sizes_a.(size_idx))))
      merged;
    R.add ~n:n_tasks r "search.cost_over_sqrt_n" (!over_sqrt /. float_of_int n_tasks) "ratio";
    R.add r "search.oracle_req_per_s" (float_of_int acc.Spans.requests /. step_s) "1/s";
    R.add r "pool.busy_ratio" (Util.sum lat /. (float_of_int workers *. g.wall_s)) "ratio";
    R.add_pct r "fabric.search_ms" (d "search.step") 0.5 ~scale:1e3 "ms";
    R.add_pct r "fabric.ckpt_write_ms" (d "fabric.ckpt_write") 0.5 ~scale:1e3 "ms";
    R.add_pct r "fabric.ckpt_load_ms" (d "fabric.ckpt_load") 0.5 ~scale:1e3 "ms";
    R.add r "fabric.merge_ms" (Util.sum (d "fabric.merge") *. 1e3) "ms";
    (* the whole grid run in-process, estimated cell by cell from the
       untraced replay *)
    let inproc_s =
      Hashtbl.fold
        (fun _ ts sum -> sum +. (Util.mean (Array.of_list ts) *. float_of_int spec.Fab.Grid.gs_trials))
        trial_s 0.
    in
    R.add r "fabric.parallel_eff" (inproc_s /. (float_of_int workers *. g.wall_s)) "ratio";
    R.add r "fabric.overhead_pct" ((g.cpu_s -. inproc_s) /. inproc_s *. 100.) "%";
    Util.write_file spans_out (Spans.perfetto spans ~process:("e2e " ^ name))
  end;
  Util.rm_rf dir;
  r
