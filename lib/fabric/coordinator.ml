(* The coordinator: owns the run directory, decides what still needs
   running, drives the Swarm over the pending shards, and merges the
   complete checkpoints into the final outputs.

   The merge is where the byte-identity contract is discharged: shard
   outcome slices are blitted into one array at their lo offsets —
   reconstructing exactly the task-order outcome sequence a sequential
   run produces — and aggregated with the same fold measure uses.
   Worker count, crash history and assignment order can only change
   how fast the array fills, never its contents. *)

module Registry = Sf_obs.Registry
module S = Sf_core.Searchability

let c_tasks_done = Registry.counter "fabric.tasks_done"

type shard_status = {
  st_shard : int;
  st_lo : int;
  st_hi : int;
  st_done : int;
  st_state : [ `Missing | `Partial | `Complete ];
}

let default_shards ~workers spec =
  let n = Grid.n_tasks spec in
  max 1 (min (max 1 workers * 4) n)

let prepare ~dir ~shards spec =
  if Sys.file_exists (Grid.plan_path dir) then
    failwith
      (Printf.sprintf "%s already holds a grid plan; `sffabric resume` continues it"
         (Grid.plan_path dir));
  let plan = Grid.make_plan ~shards spec in
  Grid.write_plan ~dir plan;
  Grid.load_plan ~dir

let load ~dir = Grid.load_plan ~dir

(* load a shard's checkpoint and insist it belongs to this plan *)
let ckpt_of_shard ~dir ~grid_crc (plan : Grid.plan) shard =
  let lo, hi = plan.Grid.p_shards.(shard) in
  let path = Grid.shard_path dir shard in
  match Ckpt.load_opt ~path with
  | None -> None
  | Some c ->
    if
      c.Ckpt.c_grid_crc <> grid_crc || c.Ckpt.c_shard <> shard || c.Ckpt.c_lo <> lo
      || c.Ckpt.c_hi <> hi
      || c.Ckpt.c_rng_token <> Grid.rng_token plan.Grid.p_spec
    then
      failwith
        (Printf.sprintf "%s belongs to a different grid or seed; refusing to merge" path)
    else Some c

let status ~dir ((plan, grid_crc) : Grid.plan * int32) =
  Array.to_list
    (Array.mapi
       (fun shard (lo, hi) ->
         match ckpt_of_shard ~dir ~grid_crc plan shard with
         | None -> { st_shard = shard; st_lo = lo; st_hi = hi; st_done = 0; st_state = `Missing }
         | Some c ->
           {
             st_shard = shard;
             st_lo = lo;
             st_hi = hi;
             st_done = c.Ckpt.c_next - lo;
             st_state = (if Ckpt.complete c then `Complete else `Partial);
           })
       plan.Grid.p_shards)

let render_status (plan : Grid.plan) sts =
  let b = Buffer.create 256 in
  let n = Grid.n_tasks plan.Grid.p_spec in
  Buffer.add_string b "shard        tasks   done  state\n";
  let total_done = ref 0 and complete = ref 0 in
  List.iter
    (fun st ->
      total_done := !total_done + st.st_done;
      if st.st_state = `Complete then incr complete;
      Buffer.add_string b
        (Printf.sprintf "%5d  [%5d,%5d) %6d  %s\n" st.st_shard st.st_lo st.st_hi st.st_done
           (match st.st_state with
           | `Missing -> "missing"
           | `Partial -> "partial"
           | `Complete -> "complete")))
    sts;
  Buffer.add_string b
    (Printf.sprintf "total  %d/%d tasks, %d/%d shards complete\n" !total_done n !complete
       (List.length sts));
  Buffer.contents b

(* Largest remaining work first, so the costliest shard — in a grid
   that sweeps n, the last — starts at once instead of running alone
   on one worker at the end.  The stable sort keeps ties in index
   order.  Order picks only when each slice lands, never its bytes. *)
let pending ~dir ~grid_crc (plan : Grid.plan) =
  let weighed = ref [] in
  for shard = Array.length plan.Grid.p_shards - 1 downto 0 do
    let lo, hi = plan.Grid.p_shards.(shard) in
    let work from = (Grid.work plan.Grid.p_spec ~lo:from ~hi, shard) in
    match ckpt_of_shard ~dir ~grid_crc plan shard with
    | Some c when Ckpt.complete c -> ()
    | Some c -> weighed := work c.Ckpt.c_next :: !weighed
    | None -> weighed := work lo :: !weighed
  done;
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare b a) !weighed)

(* reconstruct the full task-order outcome array and the summed
   counter deltas from the complete shard checkpoints *)
let merge ~dir ~grid_crc (plan : Grid.plan) =
  let n = Grid.n_tasks plan.Grid.p_spec in
  let out = Array.make n (0., false, false) in
  let counters = ref [] in
  Array.iteri
    (fun shard (lo, hi) ->
      match ckpt_of_shard ~dir ~grid_crc plan shard with
      | Some c when Ckpt.complete c ->
        Array.blit c.Ckpt.c_outcomes 0 out lo (hi - lo);
        counters := Ckpt.counters_merge !counters c.Ckpt.c_counters
      | _ ->
        failwith
          (Printf.sprintf "Coordinator.merge: shard %d is incomplete; resume the run first"
             shard))
    plan.Grid.p_shards;
  (out, !counters)

let run ~dir ~workers ?(ckpt_every = 16) ?(fault_rate = 0.) ?stop_after ?max_spawns
    ?sock_path ?(trace = false) ?(on_shard_progress = fun ~shard:_ ~done_tasks:_ ~total:_ -> ())
    ~spawn ((plan, grid_crc) : Grid.plan * int32) =
  if workers < 0 then invalid_arg "Coordinator.run: workers must be >= 0";
  if fault_rate < 0. || fault_rate >= 1. then
    invalid_arg "Coordinator.run: fault_rate must be in [0, 1)";
  let pend = pending ~dir ~grid_crc plan in
  (* per-counter totals already applied live from worker relays, so the
     final merge only adds the gap (trials checkpointed but never
     relayed — a worker that died between its last checkpoint write and
     the relay send).  Empty when tracing is off. *)
  let relayed : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let finish ~apply_counters report =
    let outcomes, counters = merge ~dir ~grid_crc plan in
    (* in distributed mode the trials ran in other processes; fold
       their persisted counter deltas into this registry so sftop and
       the exposition socket see grid totals, not just fabric.* *)
    if apply_counters then
      List.iter
        (fun (name, v) ->
          let live = Option.value (Hashtbl.find_opt relayed name) ~default:0 in
          let gap = max 0 (v - live) in
          if gap > 0 then Sf_obs.Counter.add (Registry.counter name) gap)
        counters;
    let points = Grid.write_outputs ~dir plan ~outcomes ~counters in
    `Complete (points, report)
  in
  let zero = { Swarm.sw_completed = 0; sw_spawned = 0; sw_deaths = 0; sw_reassigned = 0 } in
  if pend = [] then finish ~apply_counters:false zero
  else if workers = 0 then begin
    (* sequential in-process: the same shard runner, checkpoint files
       and merge path — just no sockets and no forks.  Fault injection
       is forced off: the dying process would be us. *)
    List.iter
      (fun shard ->
        let (_ : Ckpt.t) =
          Worker.run_shard ~dir ~grid_crc plan ~shard ~fault_rate:0. ~ckpt_every ()
        in
        ())
      pend;
    finish ~apply_counters:false { zero with Swarm.sw_completed = List.length pend }
  end
  else begin
    let sock_path = Option.value sock_path ~default:(Grid.sock_path dir) in
    let max_spawns =
      match max_spawns with
      | Some m -> m
      | None ->
        if fault_rate > 0. then
          (* every checkpoint boundary is a potential at-most-once kill
             point, so deaths are bounded by the task count *)
          workers + 8 + (2 * Grid.n_tasks plan.Grid.p_spec)
        else workers + 32
    in
    (* Progress bodies are cumulative per shard; convert to increments *)
    let last_seen : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let on_progress ~job ~body =
      match Sf_store.Varint.read body ~pos:0 with
      | exception _ -> ()
      | cum, _ ->
        let prev = Option.value (Hashtbl.find_opt last_seen job) ~default:0 in
        if cum > prev then begin
          Hashtbl.replace last_seen job cum;
          Sf_obs.Counter.add c_tasks_done (cum - prev);
          let lo, hi = plan.Grid.p_shards.(job) in
          on_shard_progress ~shard:job ~done_tasks:cum ~total:(hi - lo)
        end
    in
    (* telemetry relays land here: name the sending process by its pid
       in first-seen order ("worker-1", "worker-2", ...), apply the
       counter deltas live and replay the trace events — tagged with
       the track name — into this process's stream *)
    let worker_names : (int, string) Hashtbl.t = Hashtbl.create 8 in
    let on_telemetry ~pid ~job:_ ~body =
      match Relay.decode body with
      | exception Sf_store.Codec_error.Error _ ->
        () (* the frame CRC passed, so this is a version skew, not corruption; drop *)
      | batch ->
        let proc =
          match Hashtbl.find_opt worker_names pid with
          | Some n -> n
          | None ->
            let n = Printf.sprintf "worker-%d" (Hashtbl.length worker_names + 1) in
            Hashtbl.replace worker_names pid n;
            n
        in
        List.iter
          (fun (name, v) ->
            Hashtbl.replace relayed name
              (v + Option.value (Hashtbl.find_opt relayed name) ~default:0))
          batch.Relay.r_counters;
        Sf_obs.Shard.merge_remote ~proc ~counters:batch.Relay.r_counters
          ~events:batch.Relay.r_events
    in
    let outcome, report =
      Swarm.run ~who:"Coordinator.run" ~sock_path ~workers ~max_spawns ?stop_after
        ~spawn:(fun () -> spawn ~sock_path)
        ~pending:pend
        ~assign_body:(fun _ -> Relay.assign_body ~trace)
        ~on_done:(fun ~job:_ ~body:_ -> ())
        ~on_progress ~on_telemetry ()
    in
    match outcome with
    | `Stopped_early -> `Stopped_early report
    | `Complete -> finish ~apply_counters:true report
  end
