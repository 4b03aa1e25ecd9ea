(* The fabric battery for lib/fabric: protocol and checkpoint codec
   exactness, decode strictness under mutilated input, the shard
   runner's crash-resume contract (QCheck over arbitrary kill points),
   the swarm's death-detection/reassignment machinery with real forked
   processes, and the headline determinism claim — measure.csv and
   manifest.json byte-identical across sequential, multi-process,
   fault-injected and killed-then-resumed runs of the same grid
   (doc/FABRIC.md). *)

module Proto = Sf_fabric.Proto
module Ckpt = Sf_fabric.Ckpt
module Grid = Sf_fabric.Grid
module Swarm = Sf_fabric.Swarm
module Worker = Sf_fabric.Worker
module Coordinator = Sf_fabric.Coordinator
module Codec_error = Sf_store.Codec_error
module Rng = Sf_prng.Rng
module S = Sf_core.Searchability

let temp_counter = ref 0

let with_temp_dir body =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-fabric-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ()) (fun () -> body dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The pinned grid every determinism test runs: small enough for the
   battery, rich enough to exercise multiple sizes, strategies and a
   timeout (128/rand-walk runs out of budget twice). *)
let pinned_spec () =
  {
    Grid.gs_model = "mori";
    gs_p = 0.5;
    gs_m = 1;
    gs_alpha = 0.5;
    gs_exponent = 2.3;
    gs_sizes = [ 64; 128 ];
    gs_strategies = [ "high-degree"; "rand-walk" ];
    gs_trials = 4;
    gs_metric = `Neighbor;
    gs_source = `Oldest;
    gs_budget_mul = 4;
    gs_budget_add = 0;
    gs_seed = 11;
  }

(* MD5 of the pinned grid's measure.csv — the cross-PR golden.  If a
   legitimate change moves search outcomes (rng stream, strategy
   semantics), rerun `sffabric run --sizes 64,128 --strategies
   high-degree,rand-walk --trials 4 --seed 11 --workers 0` and update
   this digest together with the golden-output fixtures. *)
let pinned_csv_md5 = "ea6bc9be8d96c7245592e808adc93d43"

(* Worker processes are the test binary re-exec'd with a role in the
   environment (the dispatcher below runs at module init, before
   alcotest). Unix.create_process, not fork: OCaml 5 forbids Unix.fork
   once any domain has been created, and earlier suites in the battery
   spawn pool domains. *)
let spawn_self extras =
  flush stdout;
  flush stderr;
  let env = Array.append (Unix.environment ()) (Array.of_list extras) in
  Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env Unix.stdin
    Unix.stdout Unix.stderr

let () =
  match Sys.getenv_opt "SF_FABRIC_TEST_ROLE" with
  | Some "grid" ->
    let dir = Sys.getenv "SF_FABRIC_TEST_DIR" in
    let connect = Sys.getenv "SF_FABRIC_TEST_SOCK" in
    let fault_rate = float_of_string (Sys.getenv "SF_FABRIC_TEST_FAULT") in
    let ckpt_every = int_of_string (Sys.getenv "SF_FABRIC_TEST_CKPT") in
    let code = try Worker.main ~dir ~connect ~fault_rate ~ckpt_every (); 0 with _ -> 1 in
    exit code
  | Some "swarm" ->
    let connect = Sys.getenv "SF_FABRIC_TEST_SOCK" in
    let marker = Sys.getenv "SF_FABRIC_TEST_MARKER" in
    (try
       Swarm.worker_loop ~connect ~handle:(fun ~job ~body:_ ~progress:_ ~telemetry:_ ->
           if job = 0 && not (Sys.file_exists marker) then begin
             (* leave a note for the replacement, then die rudely *)
             let oc = open_out marker in
             close_out oc;
             Unix.kill (Unix.getpid ()) Sys.sigkill
           end;
           Printf.sprintf "done-%d" job)
     with _ -> ());
    exit 0
  | Some _ | None -> ()

let fork_worker ~dir ~fault_rate ~ckpt_every ~sock_path =
  spawn_self
    [
      "SF_FABRIC_TEST_ROLE=grid";
      "SF_FABRIC_TEST_DIR=" ^ dir;
      "SF_FABRIC_TEST_SOCK=" ^ sock_path;
      "SF_FABRIC_TEST_FAULT=" ^ string_of_float fault_rate;
      "SF_FABRIC_TEST_CKPT=" ^ string_of_int ckpt_every;
    ]

let run_grid ~dir ~workers ?fault_rate ?stop_after ?ckpt_every () =
  let loaded = Coordinator.load ~dir in
  let ckpt_every = Option.value ckpt_every ~default:2 in
  Coordinator.run ~dir ~workers ~ckpt_every ?fault_rate ?stop_after
    ~spawn:(fun ~sock_path ->
      fork_worker ~dir ~fault_rate:(Option.value fault_rate ~default:0.) ~ckpt_every
        ~sock_path)
    loaded

let prepare_pinned ~dir ~shards = ignore (Coordinator.prepare ~dir ~shards (pinned_spec ()))

(* ---- protocol codec --------------------------------------------------- *)

let all_msgs =
  [
    Proto.Hello 4242;
    Proto.Assign { job = 0; body = "" };
    Proto.Assign { job = 17; body = String.make 513 'x' };
    Proto.Done { job = 17; body = "payload \x00\xff bytes" };
    Proto.Progress { job = 3; body = "\x07" };
    Proto.Telemetry { job = 2; body = "relay \x00\xff bytes" };
    Proto.Quit;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun m ->
      let e = Proto.encode m in
      Alcotest.(check bool) "round trip" true (Proto.decode e = m);
      (* framed: pop finds exactly this message and nothing more *)
      let framed = Proto.frame e in
      match Proto.pop framed ~pos:0 with
      | `Frame (payload, pos) ->
        Alcotest.(check bool) "frame payload" true (Proto.decode payload = m);
        Alcotest.(check int) "frame consumed all" (String.length framed) pos
      | `Need_more | `Bad _ -> Alcotest.fail "framed message did not pop")
    all_msgs;
  (* a partial frame is Need_more at every prefix *)
  let framed = Proto.frame (Proto.encode (Proto.Done { job = 9; body = "abc" })) in
  for cut = 0 to String.length framed - 1 do
    match Proto.pop (String.sub framed 0 cut) ~pos:0 with
    | `Need_more -> ()
    | `Frame _ -> Alcotest.failf "prefix %d popped a frame" cut
    | `Bad _ -> Alcotest.failf "prefix %d unrecoverable" cut
  done;
  (* every message back to back through the shared receive buffer in
     1-byte reads: each surfaces exactly when its last byte lands *)
  let frames = List.map (fun m -> Proto.frame (Proto.encode m)) all_msgs in
  let expected =
    List.rev
      (snd
         (List.fold_left2
            (fun (at, acc) m f ->
              let at = at + String.length f in
              (at, (at, m) :: acc))
            (0, []) all_msgs frames))
  in
  let got =
    Drip.frames ~min_payload:7 ~max_payload:Proto.max_payload_default
      (String.concat "" frames)
    |> List.map (function
         | at, `Frame p -> (at, Proto.decode p)
         | _, `Bad m -> Alcotest.failf "1-byte reads: bad stream: %s" m)
  in
  Alcotest.(check bool) "1-byte reads: each message on its last byte" true (got = expected)

let test_proto_rejects () =
  let e = Proto.encode (Proto.Done { job = 5; body = "hello" }) in
  (* every truncation raises *)
  for cut = 0 to String.length e - 1 do
    match Proto.decode (String.sub e 0 cut) with
    | _ -> Alcotest.failf "truncation to %d bytes decoded" cut
    | exception Codec_error.Error _ -> ()
  done;
  (* every single-bit flip raises: version, kind, varints and body are
     all under the CRC *)
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        let b = Bytes.of_string e in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        match Proto.decode (Bytes.to_string b) with
        | _ -> Alcotest.failf "bit flip at %d:%d decoded" i bit
        | exception Codec_error.Error _ -> ()
      done)
    e;
  (* an oversized frame length is unrecoverable, not a blind wait *)
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 0x7fff_ffffl;
  match Proto.pop (Bytes.to_string b) ~pos:0 with
  | `Bad _ -> ()
  | `Need_more -> Alcotest.fail "oversized frame waited for more"
  | `Frame _ -> Alcotest.fail "oversized frame popped"

let test_proto_pump () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let ca = Proto.conn a and cb = Proto.conn b in
      List.iter (Proto.send ca) all_msgs;
      (* the receiver sees every message, in order, across pumps *)
      let got = ref [] in
      while List.length !got < List.length all_msgs do
        match Proto.pump cb with
        | `Msgs ms -> got := !got @ ms
        | `Eof -> Alcotest.fail "eof before all messages"
        | `Bad e -> Alcotest.failf "bad stream: %s" e
      done;
      Alcotest.(check bool) "all messages in order" true (!got = all_msgs);
      (* recv_block drains queued messages one at a time *)
      List.iter (Proto.send cb) all_msgs;
      List.iter
        (fun m ->
          match Proto.recv_block ca with
          | Some got -> Alcotest.(check bool) "recv_block order" true (got = m)
          | None -> Alcotest.fail "eof in recv_block")
        all_msgs;
      (* peer close is `Eof *)
      Unix.close b;
      match Proto.pump ca with
      | `Eof -> ()
      | `Msgs _ | `Bad _ -> Alcotest.fail "closed peer was not Eof")

(* One Done frame of [size] body bytes through recv_block over a
   socketpair, written by a second thread; seconds to reassemble. *)
let time_recv_block size =
  let body = String.make size 'd' in
  let framed = Proto.frame (Proto.encode (Proto.Done { job = 1; body })) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let writer = Thread.create (fun () -> Sf_obs.Frame.write_all a framed) () in
      let t0 = Unix.gettimeofday () in
      let got = Proto.recv_block (Proto.conn b) in
      let dt = Unix.gettimeofday () -. t0 in
      Thread.join writer;
      Alcotest.(check bool) "big frame intact" true (got = Some (Proto.Done { job = 1; body }));
      dt)

let test_proto_linear_reassembly () =
  (* linear reassembly makes 4x the bytes cost about 4x the time; a
     buffer re-copied on every 64 KiB read makes it about 14x *)
  let t8 = ref infinity and t32 = ref infinity in
  (* interleaved, so a slow spell of the host hits both sizes *)
  for _ = 1 to 3 do
    t8 := min !t8 (time_recv_block (8 lsl 20));
    t32 := min !t32 (time_recv_block (32 lsl 20))
  done;
  let t8 = !t8 and t32 = !t32 in
  Gc.compact ();
  Printf.printf "recv_block: 8 MiB %.3f s, 32 MiB %.3f s, ratio %.2f\n" t8 t32 (t32 /. t8);
  if t32 /. t8 >= 8. then
    Alcotest.failf "32 MiB took %.3f s, 8 MiB %.3f s: ratio %.1f, want < 8" t32 t8 (t32 /. t8)

(* ---- checkpoint codec ------------------------------------------------- *)

let sample_ckpt () =
  {
    Ckpt.c_grid_crc = 0xdead_beefl;
    c_shard = 3;
    c_lo = 24;
    c_hi = 32;
    c_rng_token = 0x0123_4567_89ab_cdefL;
    c_next = 29;
    c_outcomes = [| (12., false, false); (64., true, false); (3.5, false, true); (0., true, true); (97., false, false) |];
    c_counters = [ ("search.request", 176); ("search.runs", 5) ];
  }

let test_ckpt_roundtrip () =
  let c = sample_ckpt () in
  Alcotest.(check bool) "partial round trip" true (Ckpt.decode (Ckpt.encode c) = c);
  Alcotest.(check bool) "not complete" false (Ckpt.complete c);
  let full = { c with Ckpt.c_next = 32; c_outcomes = Array.append c.Ckpt.c_outcomes [| (1., false, false); (2., false, false); (3., false, false) |] } in
  Alcotest.(check bool) "complete round trip" true (Ckpt.decode (Ckpt.encode full) = full);
  Alcotest.(check bool) "complete" true (Ckpt.complete full);
  (* write is atomic and load is exact *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "s.ckpt" in
      Ckpt.write ~path c;
      Alcotest.(check bool) "file round trip" true (Ckpt.load ~path = c);
      Alcotest.(check bool) "load_opt some" true (Ckpt.load_opt ~path = Some c);
      Alcotest.(check bool) "load_opt none" true
        (Ckpt.load_opt ~path:(Filename.concat dir "missing.ckpt") = None))

let test_ckpt_rejects () =
  let c = sample_ckpt () in
  (match Ckpt.encode { c with Ckpt.c_next = 30 } with
  | _ -> Alcotest.fail "outcome count mismatch encoded"
  | exception Invalid_argument _ -> ());
  let e = Ckpt.encode c in
  for cut = 0 to String.length e - 1 do
    match Ckpt.decode (String.sub e 0 cut) with
    | _ -> Alcotest.failf "truncation to %d decoded" cut
    | exception Codec_error.Error _ -> ()
  done;
  let salt = ref 17 in
  String.iteri
    (fun i _ ->
      salt := (!salt * 31) land 7;
      let b = Bytes.of_string e in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl !salt)));
      match Ckpt.decode (Bytes.to_string b) with
      | _ -> Alcotest.failf "bit flip at %d decoded" i
      | exception Codec_error.Error _ -> ())
    e;
  (* a corrupt file raises out of load_opt rather than restarting *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.ckpt" in
      let oc = open_out_bin path in
      output_string oc (String.sub e 0 (String.length e - 2));
      close_out oc;
      match Ckpt.load_opt ~path with
      | _ -> Alcotest.fail "corrupt checkpoint loaded"
      | exception Codec_error.Error _ -> ())

let test_counter_helpers () =
  let base = [ ("a", 10); ("b", 5) ] in
  let now = [ ("a", 14); ("b", 5); ("c", 3) ] in
  Alcotest.(check bool) "delta" true
    (Ckpt.counters_delta ~base now = [ ("a", 4); ("c", 3) ]);
  Alcotest.(check bool) "merge" true
    (Ckpt.counters_merge [ ("b", 2); ("a", 1) ] [ ("a", 4); ("c", 3) ]
    = [ ("a", 5); ("b", 2); ("c", 3) ]);
  (* fabric.* metrics never leak into checkpoints *)
  let snap = Ckpt.counters_snapshot () in
  Alcotest.(check bool) "no fabric counters" true
    (List.for_all (fun (name, _) -> not (String.length name >= 7 && String.sub name 0 7 = "fabric.")) snap)

(* ---- grid plan -------------------------------------------------------- *)

let test_grid_plan_roundtrip () =
  let spec = pinned_spec () in
  let plan = Grid.make_plan ~shards:5 spec in
  Alcotest.(check int) "n_tasks" 16 (Grid.n_tasks spec);
  (* shards tile [0, 16) in order *)
  let covered = Array.fold_left (fun acc (lo, hi) ->
      Alcotest.(check int) "contiguous" acc lo;
      hi) 0 plan.Grid.p_shards
  in
  Alcotest.(check int) "covers all" 16 covered;
  Alcotest.(check bool) "memory round trip" true (Grid.decode (Grid.encode plan) = plan);
  with_temp_dir (fun dir ->
      Grid.write_plan ~dir plan;
      let plan2, crc = Grid.load_plan ~dir in
      Alcotest.(check bool) "file round trip" true (plan2 = plan);
      Alcotest.(check bool) "crc binds" true (crc = Grid.plan_crc plan);
      Alcotest.(check bool) "json mirror exists" true (Sys.file_exists (Grid.json_path dir)))

let test_grid_rejects () =
  let spec = pinned_spec () in
  (match Grid.make_plan ~shards:2 { spec with Grid.gs_strategies = [ "no-such" ] } with
  | _ -> Alcotest.fail "unknown strategy accepted"
  | exception Invalid_argument _ -> ());
  (match Grid.make_plan ~shards:2 { spec with Grid.gs_model = "no-such" } with
  | _ -> Alcotest.fail "unknown model accepted"
  | exception Invalid_argument _ -> ());
  let e = Grid.encode (Grid.make_plan ~shards:3 spec) in
  for cut = 0 to String.length e - 1 do
    match Grid.decode (String.sub e 0 cut) with
    | _ -> Alcotest.failf "truncation to %d decoded" cut
    | exception Codec_error.Error _ -> ()
  done;
  let salt = ref 5 in
  String.iteri
    (fun i _ ->
      salt := (!salt * 13) land 7;
      let b = Bytes.of_string e in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl !salt)));
      match Grid.decode (Bytes.to_string b) with
      | _ -> Alcotest.failf "bit flip at %d decoded" i
      | exception Codec_error.Error _ -> ())
    e

(* ---- the shard runner and its crash-resume contract ------------------- *)

let test_seq_run_equals_measure () =
  with_temp_dir (fun dir ->
      let spec = pinned_spec () in
      prepare_pinned ~dir ~shards:4;
      (match run_grid ~dir ~workers:0 () with
      | `Complete (points, _) ->
        (* the fabric's CSV is the same bytes measure would print *)
        let direct =
          S.measure (Rng.of_seed spec.Grid.gs_seed) ~make:(Grid.make_of_spec spec)
            ~strategies:(Grid.strategies_of_spec spec)
            ~sizes:spec.Grid.gs_sizes ~spec:(Grid.core_spec spec)
        in
        Alcotest.(check string) "fabric csv = measure csv" (S.points_to_csv direct)
          (S.points_to_csv points);
        Alcotest.(check string) "csv file matches" (S.points_to_csv direct)
          (read_file (Grid.csv_path dir));
        (* the cross-PR golden: this digest is pinned in the test source *)
        Alcotest.(check string) "golden digest" pinned_csv_md5
          (Digest.to_hex (Digest.string (read_file (Grid.csv_path dir))))
      | `Stopped_early _ -> Alcotest.fail "sequential run stopped early"))

exception Killed

let test_resume_after_crash () =
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          prepare_pinned ~dir:ref_dir ~shards:2;
          prepare_pinned ~dir ~shards:2;
          let plan, crc = Coordinator.load ~dir in
          (* reference: both shards straight through *)
          (match run_grid ~dir:ref_dir ~workers:0 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "reference stopped");
          (* crash shard 0 at its first checkpoint, then resume *)
          let crashed = ref false in
          (match
             Worker.run_shard ~dir ~grid_crc:crc plan ~shard:0 ~ckpt_every:1
               ~after_ckpt:(fun ~next:_ ->
                 if not !crashed then begin
                   crashed := true;
                   raise Killed
                 end)
               ()
           with
          | _ -> Alcotest.fail "crash hook did not fire"
          | exception Killed -> ());
          Alcotest.(check bool) "crashed once" true !crashed;
          (* the partial checkpoint is on disk and resumable *)
          (match Ckpt.load_opt ~path:(Grid.shard_path dir 0) with
          | Some c -> Alcotest.(check bool) "partial persisted" false (Ckpt.complete c)
          | None -> Alcotest.fail "no checkpoint after crash");
          let c0 = Worker.run_shard ~dir ~grid_crc:crc plan ~shard:0 ~ckpt_every:1 () in
          Alcotest.(check bool) "resumed to complete" true (Ckpt.complete c0);
          let (_ : Ckpt.t) = Worker.run_shard ~dir ~grid_crc:crc plan ~shard:1 ~ckpt_every:1 () in
          (* merge and compare bytes with the reference *)
          let outcomes, counters = Coordinator.merge ~dir ~grid_crc:crc plan in
          let (_ : S.point list) = Grid.write_outputs ~dir plan ~outcomes ~counters in
          Alcotest.(check string) "csv identical after crash+resume"
            (read_file (Grid.csv_path ref_dir))
            (read_file (Grid.csv_path dir));
          Alcotest.(check string) "manifest identical after crash+resume"
            (read_file (Grid.manifest_path ref_dir))
            (read_file (Grid.manifest_path dir))))

(* arbitrary kill schedules: at every checkpoint boundary a coin
   decides whether the runner "dies" (at most once per boundary, like
   the real fault injector); resuming until complete must always
   reproduce the reference bytes *)
let qcheck_kill_points =
  QCheck.Test.make ~count:8 ~name:"crash-resume is exact at arbitrary kill points"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun salt ->
      with_temp_dir (fun ref_dir ->
          with_temp_dir (fun dir ->
              prepare_pinned ~dir:ref_dir ~shards:3;
              prepare_pinned ~dir ~shards:3;
              (match run_grid ~dir:ref_dir ~workers:0 () with
              | `Complete _ -> ()
              | `Stopped_early _ -> failwith "reference stopped");
              let plan, crc = Coordinator.load ~dir in
              let krng = Rng.of_seed salt in
              let killed = Hashtbl.create 16 in
              for shard = 0 to Array.length plan.Grid.p_shards - 1 do
                let rec go () =
                  match
                    Worker.run_shard ~dir ~grid_crc:crc plan ~shard ~ckpt_every:1
                      ~after_ckpt:(fun ~next ->
                        if (not (Hashtbl.mem killed (shard, next)))
                           && Rng.unit_float krng < 0.5
                        then begin
                          Hashtbl.add killed (shard, next) ();
                          raise Killed
                        end)
                      ()
                  with
                  | c -> c
                  | exception Killed -> go ()
                in
                let c = go () in
                if not (Ckpt.complete c) then failwith "shard did not complete"
              done;
              let outcomes, counters = Coordinator.merge ~dir ~grid_crc:crc plan in
              let (_ : S.point list) = Grid.write_outputs ~dir plan ~outcomes ~counters in
              read_file (Grid.csv_path ref_dir) = read_file (Grid.csv_path dir)
              && read_file (Grid.manifest_path ref_dir) = read_file (Grid.manifest_path dir))))

let test_foreign_ckpt_refused () =
  with_temp_dir (fun dir_a ->
      with_temp_dir (fun dir_b ->
          prepare_pinned ~dir:dir_a ~shards:2;
          ignore
            (Coordinator.prepare ~dir:dir_b ~shards:2
               { (pinned_spec ()) with Grid.gs_seed = 12 });
          (match run_grid ~dir:dir_a ~workers:0 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "run stopped");
          (* graft a seed-11 checkpoint into the seed-12 run *)
          let data = read_file (Grid.shard_path dir_a 0) in
          let oc = open_out_bin (Grid.shard_path dir_b 0) in
          output_string oc data;
          close_out oc;
          let plan_b, crc_b = Coordinator.load ~dir:dir_b in
          match Coordinator.pending ~dir:dir_b ~grid_crc:crc_b plan_b with
          | _ -> Alcotest.fail "foreign checkpoint accepted"
          | exception Failure _ -> ()))

(* ---- the swarm with real processes ------------------------------------ *)

let test_workers_byte_identical () =
  with_temp_dir (fun seq_dir ->
      with_temp_dir (fun par_dir ->
          prepare_pinned ~dir:seq_dir ~shards:4;
          prepare_pinned ~dir:par_dir ~shards:4;
          (match run_grid ~dir:seq_dir ~workers:0 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "sequential stopped");
          (match run_grid ~dir:par_dir ~workers:3 () with
          | `Complete (_, report) ->
            Alcotest.(check int) "all shards" 4 report.Swarm.sw_completed
          | `Stopped_early _ -> Alcotest.fail "parallel stopped");
          Alcotest.(check string) "csv identical at workers=3"
            (read_file (Grid.csv_path seq_dir))
            (read_file (Grid.csv_path par_dir));
          Alcotest.(check string) "manifest identical at workers=3"
            (read_file (Grid.manifest_path seq_dir))
            (read_file (Grid.manifest_path par_dir))))

let test_fault_injection_byte_identical () =
  with_temp_dir (fun seq_dir ->
      with_temp_dir (fun par_dir ->
          prepare_pinned ~dir:seq_dir ~shards:4;
          prepare_pinned ~dir:par_dir ~shards:8;
          (match run_grid ~dir:seq_dir ~workers:0 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "sequential stopped");
          (match run_grid ~dir:par_dir ~workers:2 ~fault_rate:0.5 ~ckpt_every:1 () with
          | `Complete (_, report) ->
            (* seed 11 at rate 0.5 with per-trial checkpoints must
               actually kill somebody, or the test tests nothing *)
            Alcotest.(check bool) "workers died" true (report.Swarm.sw_deaths > 0);
            Alcotest.(check bool) "respawned past the initial fleet" true
              (report.Swarm.sw_spawned > 2)
          | `Stopped_early _ -> Alcotest.fail "fault run stopped");
          Alcotest.(check string) "csv identical under faults"
            (read_file (Grid.csv_path seq_dir))
            (read_file (Grid.csv_path par_dir));
          Alcotest.(check string) "manifest identical under faults"
            (read_file (Grid.manifest_path seq_dir))
            (read_file (Grid.manifest_path par_dir))))

let test_stop_then_resume () =
  with_temp_dir (fun seq_dir ->
      with_temp_dir (fun dir ->
          prepare_pinned ~dir:seq_dir ~shards:4;
          prepare_pinned ~dir ~shards:8;
          (match run_grid ~dir:seq_dir ~workers:0 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "sequential stopped");
          (* stop after 2 shards: the rest of the fleet is SIGKILLed
             mid-shard, which is the honest crash *)
          (match run_grid ~dir ~workers:2 ~stop_after:2 ~ckpt_every:1 () with
          | `Stopped_early report ->
            Alcotest.(check bool) "some shards done" true (report.Swarm.sw_completed >= 2)
          | `Complete _ -> Alcotest.fail "stop_after completed");
          let plan, crc = Coordinator.load ~dir in
          Alcotest.(check bool) "work remains" true
            (Coordinator.pending ~dir ~grid_crc:crc plan <> []);
          (* no outputs yet *)
          Alcotest.(check bool) "no premature csv" false (Sys.file_exists (Grid.csv_path dir));
          (* resume on a different worker count *)
          (match run_grid ~dir ~workers:3 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "resume stopped");
          Alcotest.(check string) "csv identical after kill+resume"
            (read_file (Grid.csv_path seq_dir))
            (read_file (Grid.csv_path dir));
          Alcotest.(check string) "manifest identical after kill+resume"
            (read_file (Grid.manifest_path seq_dir))
            (read_file (Grid.manifest_path dir))))

let test_rerun_completed_is_noop () =
  with_temp_dir (fun dir ->
      prepare_pinned ~dir ~shards:2;
      (match run_grid ~dir ~workers:0 () with
      | `Complete _ -> ()
      | `Stopped_early _ -> Alcotest.fail "run stopped");
      let csv = read_file (Grid.csv_path dir) in
      (* running again spawns nothing and rewrites identical bytes *)
      match run_grid ~dir ~workers:2 () with
      | `Complete (_, report) ->
        Alcotest.(check int) "nothing spawned" 0 report.Swarm.sw_spawned;
        Alcotest.(check string) "csv unchanged" csv (read_file (Grid.csv_path dir))
      | `Stopped_early _ -> Alcotest.fail "noop run stopped")

let test_prepare_refuses_existing () =
  with_temp_dir (fun dir ->
      prepare_pinned ~dir ~shards:2;
      match Coordinator.prepare ~dir ~shards:4 (pinned_spec ()) with
      | _ -> Alcotest.fail "re-planned a started run"
      | exception Failure _ -> ())

(* a generic swarm client whose job 0 kills its first worker: death
   detection, head-of-queue reassignment and respawn, visible in the
   report.  A single worker makes the respawn deterministic — with two,
   the survivor can drain the requeued job before the coordinator needs
   a replacement *)
let test_swarm_death_reassignment () =
  with_temp_dir (fun dir ->
      let sock_path = Filename.concat dir "swarm.sock" in
      let marker = Filename.concat dir "poison-consumed" in
      let spawn () =
        spawn_self
          [
            "SF_FABRIC_TEST_ROLE=swarm";
            "SF_FABRIC_TEST_SOCK=" ^ sock_path;
            "SF_FABRIC_TEST_MARKER=" ^ marker;
          ]
      in
      let done_bodies = ref [] in
      let outcome, report =
        Swarm.run ~who:"test-swarm" ~sock_path ~workers:1 ~spawn
          ~pending:[ 0; 1; 2; 3 ]
          ~assign_body:(fun job -> Printf.sprintf "job-%d" job)
          ~on_done:(fun ~job ~body -> done_bodies := (job, body) :: !done_bodies)
          ()
      in
      Alcotest.(check bool) "complete" true (outcome = `Complete);
      Alcotest.(check int) "all jobs done" 4 report.Swarm.sw_completed;
      Alcotest.(check bool) "death detected" true (report.Swarm.sw_deaths >= 1);
      Alcotest.(check bool) "job reassigned" true (report.Swarm.sw_reassigned >= 1);
      Alcotest.(check bool) "replacement spawned" true (report.Swarm.sw_spawned >= 2);
      List.iter
        (fun job ->
          Alcotest.(check string)
            (Printf.sprintf "job %d body" job)
            (Printf.sprintf "done-%d" job)
            (List.assoc job !done_bodies))
        [ 0; 1; 2; 3 ])

let test_swarm_socket_exclusion () =
  with_temp_dir (fun dir ->
      let sock_path = Filename.concat dir "busy.sock" in
      (* a live listener on the path: the swarm must refuse to steal it *)
      let fd = Sf_obs.Sock.bind_unix ~who:"test" sock_path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            Swarm.run ~who:"test-swarm" ~sock_path ~workers:1
              ~spawn:(fun () -> Alcotest.fail "spawned against a busy socket")
              ~pending:[ 0 ]
              ~assign_body:(fun _ -> "")
              ~on_done:(fun ~job:_ ~body:_ -> ())
              ()
          with
          | _ -> Alcotest.fail "second coordinator bound a live socket"
          | exception Invalid_argument _ -> ());
      (* once the listener is gone the stale socket file is reclaimed *)
      Alcotest.(check bool) "socket file still there" true (Sys.file_exists sock_path);
      let fd2 = Sf_obs.Sock.bind_unix ~who:"test" sock_path in
      Unix.close fd2)

let test_fault_schedule_deterministic () =
  (* the kill decision is a pure function: same inputs, same schedule *)
  let fires rate = List.init 64 (fun next -> Worker.fault_fires ~seed:11 ~shard:2 ~next rate) in
  Alcotest.(check bool) "repeatable" true (fires 0.3 = fires 0.3);
  Alcotest.(check bool) "rate 0 never fires" true
    (List.for_all not (fires 0.));
  Alcotest.(check bool) "rate 0.9 fires somewhere" true (List.exists Fun.id (fires 0.9));
  (* different shards see different schedules (with overwhelming
     probability at 64 draws; pinned here as a regression guard) *)
  let a = List.init 64 (fun next -> Worker.fault_fires ~seed:11 ~shard:1 ~next 0.5) in
  let b = List.init 64 (fun next -> Worker.fault_fires ~seed:11 ~shard:2 ~next 0.5) in
  Alcotest.(check bool) "shards decorrelated" true (a <> b)

(* ---- telemetry relay --------------------------------------------------- *)

module Relay = Sf_fabric.Relay
module Trace = Sf_obs.Trace

let ev ?(args = []) ~seq ~ts name kind = { Trace.seq; ts; name; kind; args }

(* one batch exercising every event kind and every arg tag (including
   a negative Int and negative Ints elements, which travel as zigzag
   varints) plus counter deltas at both bounds of "non-negative" *)
let relay_batch () =
  {
    Relay.r_events =
      [
        ev ~seq:1 ~ts:0.5 "fabric.trial" Trace.Begin
          ~args:
            [
              ("shard", Trace.Int 0);
              ("neg", Trace.Int (-42));
              ("w", Trace.Float 1.5);
              ("who", Trace.Str "a\x00\"b");
              ("ok", Trace.Bool true);
              ("no", Trace.Bool false);
              ("vs", Trace.Ints [ 1; -2; 3 ]);
            ];
        ev ~seq:2 ~ts:0.75 "fabric.trial" Trace.End;
        ev ~seq:3 ~ts:0.8125 "fabric.ckpt" Trace.Instant ~args:[ ("next", Trace.Int 4) ];
        ev ~seq:4 ~ts:0.875 "fabric.queue_depth" (Trace.Counter 2.25);
      ];
    r_counters = [ ("oracle.requests", 128); ("search.trials", 0) ];
  }

let test_relay_roundtrip () =
  let check_rt what b =
    let e = Relay.encode b in
    Alcotest.(check bool) (what ^ " round trips") true (Relay.decode e = b);
    (* canonical: re-encoding the decoded batch gives the same bytes *)
    Alcotest.(check string) (what ^ " canonical") e (Relay.encode (Relay.decode e))
  in
  check_rt "full batch" (relay_batch ());
  check_rt "empty batch" { Relay.r_events = []; r_counters = [] };
  check_rt "counters only" { Relay.r_events = []; r_counters = [ ("a.b", 7) ] }

let test_relay_rejects () =
  let e = Relay.encode (relay_batch ()) in
  let rejects what s =
    match Relay.decode s with
    | _ -> Alcotest.failf "decoded %s" what
    | exception Codec_error.Error _ -> ()
  in
  (* every truncation raises: counts are explicit, nothing is implied
     by end-of-input *)
  for cut = 0 to String.length e - 1 do
    rejects (Printf.sprintf "truncation to %d bytes" cut) (String.sub e 0 cut)
  done;
  rejects "trailing byte" (e ^ "\x00");
  rejects "future version" ("\x09" ^ String.sub e 1 (String.length e - 1));
  (* surgically corrupt tag bytes of a minimal single-arg event whose
     layout we control: ...| kind | ts | seq | n_args | klen k tag bool *)
  let tiny =
    Relay.encode
      {
        Relay.r_events = [ ev ~seq:1 ~ts:0.5 "n" Trace.Instant ~args:[ ("k", Trace.Bool true) ] ];
        r_counters = [];
      }
  in
  let patch s i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  let len = String.length tiny in
  rejects "bool byte 5" (patch tiny (len - 1) '\x05');
  rejects "arg tag 9" (patch tiny (len - 2) '\x09');
  (* kind byte sits right after the 1-char event name: version,
     n_counters=0, n_events=1, name len, name *)
  rejects "event kind 7" (patch tiny 5 '\x07');
  (* negative deltas are a caller bug, refused at encode time *)
  match Relay.encode { Relay.r_events = []; r_counters = [ ("x", -1) ] } with
  | _ -> Alcotest.fail "encoded a negative counter delta"
  | exception Invalid_argument _ -> ()

let test_relay_assign_flag () =
  Alcotest.(check bool) "trace:true wants trace" true
    (Relay.assign_wants_trace (Relay.assign_body ~trace:true));
  Alcotest.(check string) "trace:false is the pre-relay grammar" ""
    (Relay.assign_body ~trace:false);
  Alcotest.(check bool) "empty body runs silent" false (Relay.assign_wants_trace "");
  Alcotest.(check bool) "junk runs silent" false (Relay.assign_wants_trace "trace:2")

(* the merged fleet timeline, pinned byte-for-byte: coordinator events
   plus two worker tracks whose events pass through the relay codec
   exactly as Coordinator.run replays them.  Timestamps are fixed, so
   the whole Perfetto document is deterministic. *)
let test_fleet_timeline_golden () =
  let through_relay events =
    (Relay.decode (Relay.encode { Relay.r_events = events; r_counters = [] })).Relay.r_events
  in
  let coord =
    [
      ev ~seq:1 ~ts:0. "fabric.run" Trace.Begin ~args:[ ("shards", Trace.Int 2) ];
      ev ~seq:2 ~ts:1. "fabric.run" Trace.End;
    ]
  in
  let worker shard =
    [
      ev ~seq:1 ~ts:(0.125 +. (0.0625 *. float_of_int shard)) "fabric.trial" Trace.Begin
        ~args:(("shard", Trace.Int shard) :: ("task", Trace.Int (shard * 3))
              :: Sf_obs.Tctx.args (Sf_obs.Tctx.derive ~seed:11 ~id:(shard * 3)));
      ev ~seq:2 ~ts:(0.5 +. (0.0625 *. float_of_int shard)) "fabric.trial" Trace.End;
      ev ~seq:3 ~ts:(0.5625 +. (0.0625 *. float_of_int shard)) "fabric.ckpt" Trace.Instant
        ~args:[ ("next", Trace.Int 1) ];
    ]
  in
  let doc =
    Sf_obs.Trace_export.perfetto_of_tracks ~process:"coordinator"
      [
        ("coordinator", coord);
        ("worker-1", through_relay (worker 0));
        ("worker-2", through_relay (worker 1));
      ]
  in
  Alcotest.(check string) "golden digest of the merged timeline"
    "0163e68c1d1ccefc8cfbd18bfcfae6f2" (Digest.to_hex (Digest.string doc))

(* the headline claim with tracing ON: a traced 2-worker run produces
   byte-identical measure.csv/manifest.json to the untraced sequential
   reference, and the merged timeline that falls out names all three
   process tracks with trace-context-tagged trial spans. *)
let test_traced_workers_byte_identical () =
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          prepare_pinned ~dir:ref_dir ~shards:2;
          prepare_pinned ~dir ~shards:2;
          (match run_grid ~dir:ref_dir ~workers:0 () with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "reference stopped");
          let doc = ref "" in
          let id =
            Trace.attach
              (Sf_obs.Trace_export.perfetto_sink ~process:"coordinator" (fun d -> doc := d))
          in
          let outcome =
            Fun.protect
              ~finally:(fun () -> Trace.detach id)
              (fun () ->
                let loaded = Coordinator.load ~dir in
                Coordinator.run ~dir ~workers:2 ~ckpt_every:2 ~trace:true
                  ~spawn:(fun ~sock_path ->
                    fork_worker ~dir ~fault_rate:0. ~ckpt_every:2 ~sock_path)
                  loaded)
          in
          (match outcome with
          | `Complete _ -> ()
          | `Stopped_early _ -> Alcotest.fail "traced run stopped");
          Alcotest.(check string) "csv identical with tracing on"
            (read_file (Grid.csv_path ref_dir))
            (read_file (Grid.csv_path dir));
          Alcotest.(check string) "manifest identical with tracing on"
            (read_file (Grid.manifest_path ref_dir))
            (read_file (Grid.manifest_path dir));
          let contains sub =
            let n = String.length sub and s = !doc in
            let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          List.iter
            (fun sub ->
              Alcotest.(check bool) (Printf.sprintf "timeline mentions %S" sub) true
                (contains sub))
            [ "coordinator"; "worker-1"; "worker-2"; "fabric.trial"; "fabric.ckpt"; "\"trace\":" ]))

let suite =
  [
    ("proto: round trips", `Quick, test_proto_roundtrip);
    ("proto: rejects mutilated input", `Quick, test_proto_rejects);
    ("proto: pump and recv over sockets", `Quick, test_proto_pump);
    ("proto: reassembly linear in frame size", `Slow, test_proto_linear_reassembly);
    ("ckpt: round trips", `Quick, test_ckpt_roundtrip);
    ("ckpt: rejects mutilated input", `Quick, test_ckpt_rejects);
    ("ckpt: counter bookkeeping", `Quick, test_counter_helpers);
    ("grid: plan round trips", `Quick, test_grid_plan_roundtrip);
    ("grid: rejects bad plans", `Quick, test_grid_rejects);
    ("fabric: sequential run = measure (golden)", `Slow, test_seq_run_equals_measure);
    ("fabric: crash at a checkpoint, resume exactly", `Slow, test_resume_after_crash);
    QCheck_alcotest.to_alcotest qcheck_kill_points;
    ("fabric: foreign checkpoint refused", `Slow, test_foreign_ckpt_refused);
    ("fabric: workers=3 byte-identical", `Slow, test_workers_byte_identical);
    ("fabric: fault injection byte-identical", `Slow, test_fault_injection_byte_identical);
    ("fabric: SIGKILL mid-shard, resume byte-identical", `Slow, test_stop_then_resume);
    ("fabric: rerun of a completed grid is a no-op", `Quick, test_rerun_completed_is_noop);
    ("fabric: prepare refuses a started run", `Quick, test_prepare_refuses_existing);
    ("swarm: death, reassignment, respawn", `Quick, test_swarm_death_reassignment);
    ("swarm: live socket refused, stale reclaimed", `Quick, test_swarm_socket_exclusion);
    ("fault schedule is deterministic", `Quick, test_fault_schedule_deterministic);
    ("relay: round trips", `Quick, test_relay_roundtrip);
    ("relay: rejects mutilated input", `Quick, test_relay_rejects);
    ("relay: assign-body flag", `Quick, test_relay_assign_flag);
    ("relay: merged timeline golden", `Quick, test_fleet_timeline_golden);
    ("fabric: traced workers=2 byte-identical", `Slow, test_traced_workers_byte_identical);
  ]
