(* The search-query daemon behind bin/sfserve: a select-driven event
   loop accepting framed requests (Wire) on unix-domain and TCP
   sockets, batching every search request in flight across the
   lib/parallel domain pool, and answering with replies that are a
   pure function of (server seed, request) — request [id] selects the
   split stream [Rng.split_at master id], so a reply never depends on
   scheduling, batching, connection interleaving or the --jobs count
   (doc/SERVING.md, "Determinism").

   Connection robustness mirrors the telemetry listener (Expose): a
   client disconnecting mid-frame just drops its connection, a
   well-framed garbage payload gets an error reply and the connection
   survives, an oversized or undersized frame length poisons the
   stream and closes that one connection after an error reply, and a
   connection beyond select's FD_SETSIZE is refused — the server
   outlives all of it. *)

module Rng = Sf_prng.Rng
module Ugraph = Sf_graph.Ugraph
module Registry = Sf_obs.Registry
module Counter = Sf_obs.Counter
module Histo = Sf_obs.Histo
module Timer = Sf_obs.Timer
module Pool = Sf_parallel.Pool
module Oracle = Sf_search.Oracle
module Runner = Sf_search.Runner
module Strategy = Sf_search.Strategy
module E = Sf_store.Codec_error
module Frame = Sf_obs.Frame

let c_requests = Registry.counter "serve.requests"
let c_replies = Registry.counter "serve.replies"
let c_errors = Registry.counter "serve.protocol_errors"
let c_rejected = Registry.counter "serve.rejected"
let c_connections = Registry.counter "serve.connections"
let c_refused = Registry.counter "serve.connections_refused"
let c_batches = Registry.counter "serve.batches"
let c_bytes_in = Registry.counter "serve.bytes_in"
let c_bytes_out = Registry.counter "serve.bytes_out"
let h_batch = Registry.histo "serve.batch_size"
let h_latency = Registry.histo "serve.latency_us"
let t_batch = Registry.timer "serve.batch_s"
let g_conns = Registry.gauge "serve.open_connections"

(* Per-request stage breakdown (doc/OBSERVABILITY.md, "Distributed
   tracing"): queue = frame parsed -> batch formed, batch = batch
   formed -> pool slot starts the search, search = the search itself,
   reply = reply enqueued -> socket drained.  Totals are surfaced in
   Stats_reply so a remote client can watch where its latency goes. *)
let t_stage_queue = Registry.timer "serve.stage.queue_s"
let t_stage_batch = Registry.timer "serve.stage.batch_s"
let t_stage_search = Registry.timer "serve.stage.search_s"
let t_stage_reply = Registry.timer "serve.stage.reply_s"
let h_stage_queue = Registry.histo "serve.stage.queue_us"
let h_stage_batch = Registry.histo "serve.stage.batch_us"
let h_stage_search = Registry.histo "serve.stage.search_us"
let h_stage_reply = Registry.histo "serve.stage.reply_us"

let observe_stage tm h dt =
  let dt = Float.max 0. dt in
  Timer.add_s tm dt;
  Histo.observe h (dt *. 1e6)

(* span args for one request's stage: the request id plus, when the
   client sent a trace context, the shared trace id and a per-stage
   child span id *)
let stage_args (s : Wire.search) ~stage =
  let base = [ ("id", Sf_obs.Trace.Int s.id) ] in
  match s.ctx with
  | None -> base
  | Some c -> base @ Sf_obs.Tctx.args (Sf_obs.Tctx.child c ~key:stage)

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  graph : Ugraph.t;
  seed : int;
  default_target : int;
  default_budget : int option;
  max_payload : int;
  jobs : int option;
}

let config ?default_target ?default_budget ?(max_payload = Wire.max_payload_default)
    ?jobs ~seed graph =
  let n = Ugraph.n_vertices graph in
  if n < 1 then invalid_arg "Server.config: empty graph";
  let default_target =
    match default_target with
    | Some t ->
      if t < 1 || t > n then
        invalid_arg (Printf.sprintf "Server.config: default target %d outside 1..%d" t n);
      t
    | None -> n
  in
  (match default_budget with
  | Some b when b < 1 -> invalid_arg "Server.config: default budget must be >= 1"
  | Some _ | None -> ());
  { graph; seed; default_target; default_budget; max_payload; jobs }

type conn = {
  c_fd : Unix.file_descr;
  c_in : Frame.reader;
  c_out : Frame.queue;
  mutable c_alive : bool;
  mutable c_close_after_flush : bool;
  (* search replies sitting in c_out, most recent first: enqueue time
     plus the request they answer, settled when the buffer drains *)
  mutable c_pending_replies : (float * Wire.search) list;
}

type t = {
  cfg : config;
  listeners : (Unix.file_descr * Wire.endpoint) list;
  pool : Pool.t;
  master : Rng.t; (* never advanced: requests draw split_at children *)
  strategies : (string * Strategy.t) list;
  mutable conns : conn list;
  mutable running : bool;
  mutable draining : bool; (* shutdown requested; exit once flushed *)
  mutable served : int;
  mutable errors : int;
  mutable accepted : int;
}

(* ------------------------------------------------------------------ *)
(* Listening sockets                                                   *)
(* ------------------------------------------------------------------ *)

let bind_endpoint ~backlog ep =
  let fd =
    match ep with
    | Wire.Unix_path path -> Sf_obs.Sock.bind_unix ~backlog ~who:"Serve.listen" path
    | Wire.Tcp (host, port) ->
      Sf_obs.Sock.stream Unix.PF_INET (fun fd ->
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          let addr = if host = "*" then Unix.inet_addr_any else Wire.inet_addr host in
          Unix.bind fd (Unix.ADDR_INET (addr, port));
          Unix.listen fd backlog)
  in
  Unix.set_nonblock fd;
  (fd, ep)

let strategy_table () =
  let all =
    Sf_search.Strategies.weak_portfolio ()
    @ Sf_search.Strategies.strong_portfolio ()
    @ [ Sf_search.Strategies.random_edge ~skip_known:false ]
  in
  List.map (fun s -> (s.Strategy.name, s)) all

let strategy_names t = List.map fst t.strategies

let create ?(backlog = 64) cfg ~listen =
  if listen = [] then invalid_arg "Server.create: no listen endpoints";
  let listeners = List.map (bind_endpoint ~backlog) listen in
  (* a stalled client must see EPIPE on our writes, not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    cfg;
    listeners;
    pool = Pool.create ?jobs:cfg.jobs ();
    master = Rng.of_seed cfg.seed;
    strategies = strategy_table ();
    conns = [];
    running = true;
    draining = false;
    served = 0;
    errors = 0;
    accepted = 0;
  }

let endpoints t = List.map snd t.listeners
let served t = t.served
let protocol_errors t = t.errors
let connections_accepted t = t.accepted
let stop t = t.running <- false

(* ------------------------------------------------------------------ *)
(* Per-connection I/O                                                  *)
(* ------------------------------------------------------------------ *)

let close_conn c =
  if c.c_alive then begin
    c.c_alive <- false;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ())
  end

let enqueue c resp =
  Frame.push c.c_out (Wire.encode_response resp);
  Counter.incr c_replies

(* the reply-write stage closes when the connection's buffer fully
   drains: every search reply that was sitting in it is settled at the
   drain timestamp (the kernel has the bytes; client-side receive time
   is the load generator's business) *)
let settle_replies c =
  match c.c_pending_replies with
  | [] -> ()
  | pending ->
    c.c_pending_replies <- [];
    let t_flush = Timer.now_s () in
    List.iter
      (fun (t_enq, s) ->
        observe_stage t_stage_reply h_stage_reply (t_flush -. t_enq);
        if Sf_obs.Trace.active () then begin
          Sf_obs.Trace.emit ~ts:t_enq "serve.stage.reply" Sf_obs.Trace.Begin
            ~args:(stage_args s ~stage:4);
          Sf_obs.Trace.emit ~ts:t_flush "serve.stage.reply" Sf_obs.Trace.End
        end)
      (List.rev pending)

let pending_out c = c.c_alive && Frame.pending c.c_out > 0

let flush_conn c =
  if pending_out c then begin
    match Frame.flush c.c_out c.c_fd with
    | n ->
      Counter.add c_bytes_out n;
      if Frame.pending c.c_out = 0 then begin
        settle_replies c;
        if c.c_close_after_flush then close_conn c
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  end

(* EOF, a reset or any other socket error (ETIMEDOUT from an expired
   TCP keepalive, say) ends that one connection; everyone else keeps
   being served *)
let read_conn c =
  match Frame.read c.c_in c.c_fd with
  | 0 -> close_conn c
  | n -> Counter.add c_bytes_in n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn c

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let stats_reply t id =
  Wire.Stats_reply
    {
      Wire.ss_id = id;
      ss_n_vertices = Ugraph.n_vertices t.cfg.graph;
      ss_n_edges = Ugraph.n_edges t.cfg.graph;
      ss_served = t.served;
      ss_errors = t.errors;
      ss_connections = t.accepted;
      ss_stage_queue_us = int_of_float (Timer.total_s t_stage_queue *. 1e6);
      ss_stage_batch_us = int_of_float (Timer.total_s t_stage_batch *. 1e6);
      ss_stage_search_us = int_of_float (Timer.total_s t_stage_search *. 1e6);
      ss_stage_reply_us = int_of_float (Timer.total_s t_stage_reply *. 1e6);
    }

(* One search request, anywhere in the pool: the reply depends only on
   (cfg, request) — the rng is the request id's split stream off the
   never-advanced master, so any batching of concurrent requests
   yields the same bytes. *)
let handle_search t (s : Wire.search) : Wire.response =
  match List.assoc_opt s.strategy t.strategies with
  | None ->
    Counter.incr c_rejected;
    Wire.Error
      {
        err_id = s.id;
        code = Wire.Unknown_strategy;
        message =
          Printf.sprintf "unknown strategy %S (known: %s)" s.strategy
            (String.concat ", " (strategy_names t));
      }
  | Some strategy -> (
    let n = Ugraph.n_vertices t.cfg.graph in
    let target = Option.value ~default:t.cfg.default_target s.target in
    let source = Option.value ~default:(if target = 1 then 2 else 1) s.source in
    let budget =
      match s.budget with Some _ as b -> b | None -> t.cfg.default_budget
    in
    if target < 1 || target > n || source < 1 || source > n then begin
      Counter.incr c_rejected;
      Wire.Error
        {
          err_id = s.id;
          code = Wire.Bad_vertex;
          message = Printf.sprintf "source %d / target %d outside 1..%d" source target n;
        }
    end
    else
      match budget with
      | Some b when b < 1 ->
        Counter.incr c_rejected;
        Wire.Error
          {
            err_id = s.id;
            code = Wire.Bad_request;
            message = Printf.sprintf "budget %d must be >= 1" b;
          }
      | _ ->
        let t0 = Timer.now_s () in
        let rng = Rng.split_at t.master s.id in
        let stop_at = if s.stop_at_neighbor then Runner.At_neighbor else Runner.At_target in
        let oracle =
          Oracle.start ~rng strategy.Strategy.model t.cfg.graph ~source ~target
        in
        let outcome = Runner.run ?budget ~stop_at ~rng strategy oracle in
        let path_len =
          (* the paper's deliverable is a certified path, not a name:
             report the length of the discovery-tree path when the
             target was actually reached *)
          if Oracle.target_found oracle then
            List.length (Oracle.discovery_path oracle target) - 1
          else 0
        in
        Oracle.release oracle;
        Counter.incr c_requests;
        Histo.observe h_latency ((Timer.now_s () -. t0) *. 1e6);
        Wire.Search_reply
          {
            Wire.sr_id = s.id;
            sr_total_requests = outcome.Runner.total_requests;
            sr_to_target = outcome.Runner.to_target;
            sr_to_neighbor = outcome.Runner.to_neighbor;
            sr_discovered = outcome.Runner.discovered;
            sr_gave_up = outcome.Runner.gave_up;
            sr_path_len = path_len;
          })

(* Drain every complete frame out of a connection's receive buffer.
   Searches are collected for the batch; everything else is answered
   inline. *)
let parse_conn t c acc =
  let rec go acc =
    if not c.c_alive then acc
    else
      match Frame.next c.c_in with
      | `Need_more -> acc
      | `Bad msg ->
        (* the length prefix itself is garbage: no resynchronisation is
           possible, so answer once and drop the connection *)
        t.errors <- t.errors + 1;
        Counter.incr c_errors;
        enqueue c (Wire.Error { err_id = 0; code = Wire.Bad_frame; message = msg });
        c.c_close_after_flush <- true;
        Frame.clear c.c_in;
        acc
      | `Frame payload -> (
        match Wire.decode_request payload with
        | exception E.Error e ->
          (* framing is intact, the payload is mutilated: report and
             keep the connection *)
          t.errors <- t.errors + 1;
          Counter.incr c_errors;
          enqueue c
            (Wire.Error { err_id = 0; code = Wire.Bad_frame; message = E.to_string e });
          go acc
        | Wire.Search s -> go ((c, s, Timer.now_s ()) :: acc)
        | Wire.Ping id ->
          enqueue c (Wire.Pong id);
          go acc
        | Wire.Stats id ->
          enqueue c (stats_reply t id);
          go acc
        | Wire.Shutdown id ->
          enqueue c (Wire.Shutdown_ack id);
          t.draining <- true;
          go acc)
  in
  go acc

(* The batch: every search currently in flight, across all
   connections, dealt to the domain pool. Pool.mapi brackets each task
   in a Shard capture and merges in index order, so metric totals are
   deterministic too (doc/PARALLELISM.md). *)
let run_batch t batch =
  let batch = Array.of_list (List.rev batch) in
  let k = Array.length batch in
  if k > 0 then begin
    Counter.incr c_batches;
    Histo.observe_int h_batch k;
    let t_bstart = Timer.now_s () in
    let replies =
      Timer.time t_batch (fun () ->
          Pool.mapi t.pool k (fun i ->
              let _, s, t_arr = batch.(i) in
              (* stage observations and spans happen inside the task's
                 Shard capture: merged in index order at the join, so
                 counts and the event sequence stay deterministic *)
              let t_sstart = Timer.now_s () in
              observe_stage t_stage_queue h_stage_queue (t_bstart -. t_arr);
              observe_stage t_stage_batch h_stage_batch (t_sstart -. t_bstart);
              let traced = Sf_obs.Trace.active () in
              if traced then begin
                Sf_obs.Trace.emit ~ts:t_arr "serve.stage.queue" Sf_obs.Trace.Begin
                  ~args:(stage_args s ~stage:1);
                Sf_obs.Trace.emit ~ts:t_bstart "serve.stage.queue" Sf_obs.Trace.End;
                Sf_obs.Trace.emit ~ts:t_bstart "serve.stage.batch" Sf_obs.Trace.Begin
                  ~args:(stage_args s ~stage:2);
                Sf_obs.Trace.emit ~ts:t_sstart "serve.stage.batch" Sf_obs.Trace.End;
                Sf_obs.Trace.emit ~ts:t_sstart "serve.stage.search" Sf_obs.Trace.Begin
                  ~args:(stage_args s ~stage:3)
              end;
              let reply = handle_search t s in
              let t_done = Timer.now_s () in
              observe_stage t_stage_search h_stage_search (t_done -. t_sstart);
              if traced then
                Sf_obs.Trace.emit ~ts:t_done "serve.stage.search" Sf_obs.Trace.End;
              reply))
    in
    t.served <- t.served + k;
    Array.iteri
      (fun i reply ->
        let c, s, _ = batch.(i) in
        enqueue c reply;
        c.c_pending_replies <- (Timer.now_s (), s) :: c.c_pending_replies)
      replies
  end

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

(* select raises EINVAL for a whole set that holds any descriptor at or
   above FD_SETSIZE (1024). A connection select cannot watch is closed
   at once, so its client reads EOF, and counted; the loop never sees
   its fd *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error _ -> false

let accept_ready t lfd =
  let rec go () =
    match Unix.accept lfd with
    | fd, _ when not (selectable fd) ->
      Counter.incr c_refused;
      Unix.close fd;
      go ()
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      t.accepted <- t.accepted + 1;
      Counter.incr c_connections;
      t.conns <-
        {
          c_fd = fd;
          c_in = Frame.reader ~min_payload:Wire.min_payload ~max_payload:t.cfg.max_payload;
          c_out = Frame.queue ();
          c_alive = true;
          c_close_after_flush = false;
          c_pending_replies = [];
        }
        :: t.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let step t ~timeout =
  let listener_fds = List.map fst t.listeners in
  let conn_fds = List.filter_map (fun c -> if c.c_alive then Some c.c_fd else None) t.conns in
  let wfds = List.filter_map (fun c -> if pending_out c then Some c.c_fd else None) t.conns in
  match Unix.select (listener_fds @ conn_fds) wfds [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    List.iter (fun lfd -> if List.mem lfd readable then accept_ready t lfd) listener_fds;
    List.iter
      (fun c -> if c.c_alive && List.mem c.c_fd readable then read_conn c)
      t.conns;
    let batch = List.fold_left (fun acc c -> if c.c_alive then parse_conn t c acc else acc) [] t.conns in
    run_batch t batch;
    ignore writable;
    (* writes are nonblocking and EAGAIN-tolerant, so just try every
       connection with output pending — including output the batch
       created after the select returned *)
    List.iter (fun c -> if pending_out c then flush_conn c) t.conns;
    Registry.set_gauge g_conns
      (float_of_int (List.length (List.filter (fun c -> c.c_alive) t.conns)));
    t.conns <- List.filter (fun c -> c.c_alive) t.conns;
    if t.draining && not (List.exists pending_out t.conns) then t.running <- false

let cleanup t =
  List.iter (fun c -> close_conn c) t.conns;
  t.conns <- [];
  List.iter
    (fun (fd, ep) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match ep with
      | Wire.Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | Wire.Tcp _ -> ())
    t.listeners;
  Pool.shutdown t.pool

let run ?(tick = 0.05) t =
  Fun.protect
    ~finally:(fun () -> cleanup t)
    (fun () ->
      while t.running do
        step t ~timeout:tick
      done)
