(* The process pool: a coordinator select loop and the matching worker
   loop, generic over what a "job" is.  The grid runner (Coordinator /
   Worker) and the experiment fan-out (Sf_experiments.Distrib) both
   sit on this engine; neither defines its own process management.

   Life of a worker: the coordinator binds DIR/fabric.sock (through
   Sf_obs.Sock, so a socket left by a crashed coordinator is reclaimed
   and a live one is refused — double-running the same grid directory
   is impossible), spawns N processes, and each connects back, says
   Hello pid, and is fed Assign / answers Done until the pending queue
   drains, then gets Quit.

   Death is detected as connection EOF (or an unresynchronisable
   stream): the worker's in-flight job goes back to the head of the
   queue, a replacement process is spawned (up to max_spawns), and the
   zombie is reaped by pid.  SIGKILL at any instant is therefore an
   ordinary event, which is what --fault-rate leans on.  The engine
   never looks inside job bodies, so determinism is entirely the
   client's concern: jobs must be pure functions of their index. *)

module Registry = Sf_obs.Registry
module Trace = Sf_obs.Trace

let c_spawned = Registry.counter "fabric.workers_spawned"
let c_deaths = Registry.counter "fabric.worker_deaths"
let c_reassigned = Registry.counter "fabric.reassigned"
let c_jobs_done = Registry.counter "fabric.jobs_done"
let g_live = Registry.gauge "fabric.workers_live"

type report = {
  sw_completed : int;
  sw_spawned : int;
  sw_deaths : int;
  sw_reassigned : int;
}

let spawn_exec argv =
  (* the child shares the parent's buffered stdio; flush so nothing is
     printed twice. Unix.create_process (posix_spawn underneath), not
     fork+exec: OCaml 5 forbids Unix.fork in any process that has ever
     created a domain, and a caller may have run pool work before
     fanning out *)
  flush stdout;
  flush stderr;
  Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr

type wstate = {
  w_conn : Proto.conn;
  mutable w_pid : int option;  (* learned from Hello *)
  mutable w_job : int option;
}

let trace name args = if Trace.active () then Trace.emit name Trace.Instant ~args

let run ~who ~sock_path ~workers ?(backlog = 16) ?max_spawns ?stop_after ~spawn ~pending
    ~assign_body ~on_done ?(on_progress = fun ~job:_ ~body:_ -> ())
    ?(on_telemetry = fun ~pid:_ ~job:_ ~body:_ -> ()) () =
  if workers < 1 then invalid_arg (who ^ ": need at least one worker");
  let total = List.length pending in
  let target = match stop_after with Some k -> max 1 (min k total) | None -> total in
  let max_spawns = Option.value max_spawns ~default:(workers + 32) in
  let zero = { sw_completed = 0; sw_spawned = 0; sw_deaths = 0; sw_reassigned = 0 } in
  if total = 0 then (`Complete, zero)
  else begin
    let listen_fd = Sf_obs.Sock.bind_unix ~backlog ~who sock_path in
    let pending = ref pending in
    let completed = ref 0 in
    let conns : wstate list ref = ref [] in
    let spawned = ref 0 and deaths = ref 0 and reassigned = ref 0 in
    let children = Hashtbl.create 16 in
    (* live spawned pids *)
    let set_live () = Registry.set_gauge g_live (float_of_int (Hashtbl.length children)) in
    let spawn_one () =
      let pid = spawn () in
      incr spawned;
      Sf_obs.Counter.incr c_spawned;
      Hashtbl.replace children pid ();
      set_live ();
      trace "fabric.spawn" [ ("pid", Trace.Int pid) ]
    in
    let reap_nonblock () =
      let exited =
        Hashtbl.fold
          (fun pid () acc ->
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> acc
            | _ -> pid :: acc
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pid :: acc)
          children []
      in
      List.iter (fun pid -> Hashtbl.remove children pid) exited;
      if exited <> [] then set_live ()
    in
    let drop w =
      (try Unix.close (Proto.conn_fd w.w_conn) with Unix.Unix_error _ -> ());
      conns := List.filter (fun o -> o != w) !conns
    in
    (* a vanished or unresynchronisable worker: give its job back and
       note the death; the respawn check below starts a replacement *)
    let death w =
      incr deaths;
      Sf_obs.Counter.incr c_deaths;
      trace "fabric.death"
        [ ("pid", Trace.Int (Option.value w.w_pid ~default:0)) ];
      (match w.w_job with
      | Some job ->
        pending := job :: !pending;
        incr reassigned;
        Sf_obs.Counter.incr c_reassigned;
        trace "fabric.reassign" [ ("job", Trace.Int job) ]
      | None -> ());
      drop w
    in
    let assign_or_quit w =
      match !pending with
      | [] ->
        (try Proto.send w.w_conn Proto.Quit with Unix.Unix_error _ -> ());
        drop w
      | job :: rest -> (
        pending := rest;
        w.w_job <- Some job;
        match Proto.send w.w_conn (Proto.Assign { job; body = assign_body job }) with
        | () -> trace "fabric.assign" [ ("job", Trace.Int job) ]
        | exception Unix.Unix_error _ -> death w)
    in
    let handle_msg w = function
      | Proto.Hello pid ->
        w.w_pid <- Some pid;
        assign_or_quit w
      | Proto.Done { job; body } ->
        w.w_job <- None;
        incr completed;
        Sf_obs.Counter.incr c_jobs_done;
        trace "fabric.done" [ ("job", Trace.Int job) ];
        on_done ~job ~body;
        if !completed < target then assign_or_quit w
      | Proto.Progress { job; body } -> on_progress ~job ~body
      | Proto.Telemetry { job; body } ->
        on_telemetry ~pid:(Option.value w.w_pid ~default:0) ~job ~body
      | Proto.Assign _ | Proto.Quit -> death w
    in
    let cleanup ~kill =
      List.iter (fun w -> try Unix.close (Proto.conn_fd w.w_conn) with Unix.Unix_error _ -> ()) !conns;
      conns := [];
      if kill then
        Hashtbl.iter
          (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          children;
      (* grace period for clean exits, then SIGKILL stragglers *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait_children () =
        reap_nonblock ();
        if Hashtbl.length children > 0 then
          if Unix.gettimeofday () > deadline then begin
            Hashtbl.iter
              (fun pid () ->
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
              children;
            Hashtbl.reset children
          end
          else begin
            ignore (Unix.select [] [] [] 0.02);
            wait_children ()
          end
      in
      wait_children ();
      set_live ();
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink sock_path with Unix.Unix_error _ -> ()
    in
    let fail msg =
      cleanup ~kill:true;
      failwith (who ^ ": " ^ msg)
    in
    (try
       for _ = 1 to min workers total do
         spawn_one ()
       done
     with e ->
       cleanup ~kill:true;
       raise e);
    while !completed < target do
      reap_nonblock ();
      (* replace dead processes while work remains *)
      let in_flight = List.length (List.filter (fun w -> w.w_job <> None) !conns) in
      let outstanding = List.length !pending + in_flight in
      let want = min workers outstanding in
      while Hashtbl.length children < want && !completed < target do
        if !spawned >= max_spawns then
          fail
            (Printf.sprintf "spawn limit exceeded (%d spawns for %d workers): workers are dying faster than they finish jobs"
               !spawned workers);
        spawn_one ()
      done;
      if outstanding = 0 && !completed < target then
        (* every job is done or abandoned yet the target is unreached —
           cannot happen while deaths requeue jobs, but guard against a
           logic error looping forever *)
        fail "no outstanding work but target unreached";
      let fds = listen_fd :: List.map (fun w -> Proto.conn_fd w.w_conn) !conns in
      match Unix.select fds [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        if List.mem listen_fd readable then begin
          match Unix.accept listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> conns := { w_conn = Proto.conn fd; w_pid = None; w_job = None } :: !conns
        end;
        (* snapshot: handle_msg mutates the conns list, and an earlier
           message in this pass may already have dropped (closed) a
           later connection — re-check membership before pumping *)
        let snapshot =
          List.filter (fun w -> List.mem (Proto.conn_fd w.w_conn) readable) !conns
        in
        List.iter
          (fun w ->
            if List.memq w !conns then
              match Proto.pump w.w_conn with
              | `Eof | `Bad _ -> death w
              | `Msgs msgs ->
                List.iter (fun m -> if List.memq w !conns then handle_msg w m) msgs)
          snapshot
    done;
    let stopped = !completed < total in
    cleanup ~kill:stopped;
    ( (if stopped then `Stopped_early else `Complete),
      {
        sw_completed = !completed;
        sw_spawned = !spawned;
        sw_deaths = !deaths;
        sw_reassigned = !reassigned;
      } )
  end

let worker_loop ~connect ~handle =
  let fd = Sf_obs.Sock.connect_unix connect in
  let c = Proto.conn fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Proto.send c (Proto.Hello (Unix.getpid ())) with Unix.Unix_error _ -> ());
      let rec loop () =
        match Proto.recv_block c with
        | None | Some Proto.Quit -> ()
        | Some (Proto.Assign { job; body }) ->
          let progress body =
            try Proto.send c (Proto.Progress { job; body }) with Unix.Unix_error _ -> ()
          in
          let telemetry body =
            try Proto.send c (Proto.Telemetry { job; body }) with Unix.Unix_error _ -> ()
          in
          let result = handle ~job ~body ~progress ~telemetry in
          (try Proto.send c (Proto.Done { job; body = result })
           with Unix.Unix_error _ -> ());
          loop ()
        | Some (Proto.Hello _ | Proto.Done _ | Proto.Progress _ | Proto.Telemetry _) ->
          failwith "fabric worker: unexpected coordinator message"
      in
      loop ())
