(* The serve workloads. sfgen writes a Móri tree (p = 0.5, m = 1) from
   the workload seed, sfserve serves it, and this process drives it
   over one unix-socket connection from two threads, a sender and a
   receiver, through Sf_serve.Client. The request plan is the
   benchmark's own: request [id] is a pure function of (seed, id).

   Correctness: a seeded sample of the ids, spread over the whole run
   and every rung of the ladder, is replayed in-process through the
   same public calls Server.handle_search makes, and the CRC-32 of the
   replies (Load's definition: each payload without its CRC tail) must
   match the socket run's. A traced run samples more densely and
   replays each sampled request a second time with every layer call in
   a span. *)

module Wire = Sf_serve.Wire
module Client = Sf_serve.Client
module Rng = Sf_prng.Rng
module Oracle = Sf_search.Oracle
module Runner = Sf_search.Runner
module Strategy = Sf_search.Strategy
module R = Report

type target = Uniform | Newest of int

type load =
  | Closed of int  (** in-flight window, the whole run *)
  | Closed_then_ladder of int
      (** in-flight window of a closed loop over the whole run; a traced
          run keeps it for the first third and gives the rest to the
          open-loop ladder *)

type t = {
  name : string;
  n : int;
  mix : (string * int) list;
  target : target;
  random_source : bool;  (** a uniform source per request; else vertex 1 *)
  budget : int option;  (** [None]: the server default, 4n + 64 *)
  stop_at_neighbor : bool;
  jobs : int;
  load : load;
  check_every : int;  (** untraced: one id in this many is replayed, on average *)
  trace_every : int;  (** the same in a traced run *)
  exact : int;  (** the exact counts cover this many of the first sampled ids *)
  probe : int;  (** window-1 round trips in a traced run *)
}

(* Uniform targets under a budget of √n: every query pays at most the
   Theorem 1 floor, so Oracle.start's O(n) set-up dominates. *)
let capped =
  {
    name = "serve_capped"; n = 1 lsl 20; mix = [ ("high-degree", 1); ("bfs", 1) ];
    target = Uniform; random_source = false; budget = Some 1024; stop_at_neighbor = true;
    jobs = 2; load = Closed 4; check_every = 80; trace_every = 20; exact = 64; probe = 48;
  }

(* New-vertex targets with the default 4n + 64 budget: long, heavy-
   tailed searches where stepping and the oracle request path do the
   work and set-up is a few per cent. The targets are the newest n/64
   vertices, not vertex n alone, so one run averages over many targets
   and seeds compare. *)
let long =
  {
    name = "serve_long"; n = 1 lsl 14;
    mix = [ ("high-degree", 2); ("s-high-degree", 1); ("rand-walk", 1) ];
    target = Newest (1 lsl 8); random_source = false; budget = None; stop_at_neighbor = false;
    jobs = 2; load = Closed 4; check_every = 80; trace_every = 14; exact = 64; probe = 48;
  }

(* Sixty-microsecond searches: framing, the select loop, batching and
   the reply write dominate. A closed loop 32 deep measures how many
   the server completes per second. The server is bistable here: one
   that falls slightly behind reads bigger batches and pays less CPU
   per reply, and it flips between the two modes every few seconds.
   Over a whole run the modes average out (10% spread over ten seeds);
   over a 10 s loop they did not (34%), nor did the goodput knee of
   the open-loop ladder (single climbs end near 11k or near 22k req/s;
   a median of climbs spread 21% to 39%). So the ladder runs only in a
   traced run, for its latencies at 4000 req/s and its goodput, which
   are per-layer numbers. Sources are uniform: discovering the source
   publishes all its edge handles, so from vertex 1 every request
   would cost about deg(1), which differs severalfold between seeds. *)
let open_ =
  {
    name = "serve_open"; n = 1 lsl 12; mix = [ ("high-degree", 1); ("bfs", 1) ];
    target = Uniform; random_source = true; budget = Some 16; stop_at_neighbor = true; jobs = 1;
    load = Closed_then_ladder 32; check_every = 400; trace_every = 100; exact = 1000; probe = 400;
  }

let all = [ capped; long; open_ ]

(* ---- the request plan ---------------------------------------------- *)

let plan t ~seed =
  let root = Rng.split_at (Rng.of_seed seed) 1 in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 t.mix in
  let rec pick k = function
    | [ (s, _) ] -> s
    | (s, w) :: rest -> if k < w then s else pick (k - w) rest
    | [] -> assert false
  in
  fun id ->
    let rng = Rng.split_at root id in
    let strategy = pick (Rng.int rng total) t.mix in
    let target =
      match t.target with Uniform -> 1 + Rng.int rng t.n | Newest k -> t.n - Rng.int rng k
    in
    let rec other () =
      let v = 1 + Rng.int rng t.n in
      if v = target then other () else v
    in
    let source = if t.random_source then Some (other ()) else None in
    { Wire.id; strategy; source; target = Some target; budget = t.budget;
      stop_at_neighbor = t.stop_at_neighbor; ctx = None }

(* Whether request [id] is replayed: a draw per id from the seed, true
   once in [every] on average. The sample is fixed before the run and
   spreads over all of it, whatever rate the ids are sent at. *)
let sampler ~seed ~every =
  let root = Rng.split_at (Rng.of_seed seed) 5 in
  fun id -> Rng.int (Rng.split_at root id) every = 0

(* ---- the server ---------------------------------------------------- *)

type server = { pid : int; ctl : Client.t; ep : Wire.endpoint }

let graph_path env t = Util.in_work env (t.name ^ ".sfg")
let log_path env t = Util.in_work env (t.name ^ ".log")
let server_manifest env t = Util.in_work env (t.name ^ ".serve.json")
let gen_manifest env t = Util.in_work env (t.name ^ ".gen.json")

let rec connect_ready ~pid ~deadline ep =
  match Client.connect ep with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
    if not (Util.alive pid) then failwith "sfserve exited before listening";
    if Util.now () > deadline then failwith "sfserve did not listen within 60 s";
    Thread.delay 0.001;
    connect_ready ~pid ~deadline ep

(* Set-up as a user pays it: exec of sfgen until sfserve answers the
   first Ping. *)
let start_server env t =
  let log = log_path env t in
  let t0 = Util.now () in
  Util.run ~log
    (Array.append
       [| Util.bin env "sfgen"; "mori"; "-n"; string_of_int t.n; "-p"; "0.5"; "-m"; "1"; "--seed";
          string_of_int env.seed; "--format"; "csr"; "--out"; graph_path env t |]
       (if env.traced then [| "--metrics"; gen_manifest env t |] else [||]));
  let ep = Wire.Unix_path (Util.in_work env (t.name ^ ".sock")) in
  let pid =
    Util.spawn ~log
      [| Util.bin env "sfserve"; "--graph"; graph_path env t; "--seed"; string_of_int env.seed;
         "--jobs"; string_of_int t.jobs; "--listen"; Wire.endpoint_to_string ep; "--metrics";
         server_manifest env t |]
  in
  let ctl = connect_ready ~pid ~deadline:(t0 +. 60.) ep in
  (match Client.call ctl (Wire.Ping 1) with
  | Wire.Pong 1 -> ()
  | _ -> failwith "sfserve answered Ping with something else");
  ({ pid; ctl; ep }, Util.now () -. t0)

let stop_server s =
  (try ignore (Client.call s.ctl (Wire.Shutdown 0)) with _ -> ());
  Client.close s.ctl;
  Util.wait ~timeout:30. s.pid

let stats s =
  match Client.call s.ctl (Wire.Stats 0) with
  | Wire.Stats_reply st -> st
  | _ -> failwith "sfserve answered Stats with something else"

(* ---- driving the socket -------------------------------------------- *)

(* Per-request state of a run, indexed by id - 1. Only the replies the
   checks replay are kept whole; the rest shrink to a status byte, so
   the live heap this process's GC marks on every cycle stays small and
   the load generator stays out of the server's way. *)
type io = {
  conn : Client.t;
  status : Bytes.t;  (** '\000' unanswered, 'r' search reply, 'e' anything else *)
  keep : int -> bool;  (** the sampled ids *)
  kept : (int, Wire.response) Hashtbl.t;  (** replies to the sampled ids *)
  send_at : float array;  (** 0 until sent *)
  recv_at : float array;
  mutable received : int;
}

let make_io conn ~cap ~keep =
  Client.set_receive_timeout conn 0.05;
  { conn; status = Bytes.make cap '\000'; keep; kept = Hashtbl.create 1024;
    send_at = Array.make cap 0.; recv_at = Array.make cap 0.; received = 0 }

let capacity io = Bytes.length io.status
let answered io i = Bytes.get io.status i = 'r'

(* Receive on the calling thread until [until ()] holds, or until
   nothing has arrived for 30 s (the rest then count as missing). *)
let receive io ~on_reply ~until =
  let last = ref (Util.now ()) in
  let live = ref true in
  while !live && not (until ()) do
    match Client.recv io.conn with
    | resp ->
      let now = Util.now () in
      last := now;
      let id = Wire.response_id resp in
      if id >= 1 && id <= capacity io && Bytes.get io.status (id - 1) = '\000' then begin
        Bytes.set io.status (id - 1) (match resp with Wire.Search_reply _ -> 'r' | _ -> 'e');
        if io.keep id then Hashtbl.replace io.kept id resp;
        io.recv_at.(id - 1) <- now;
        io.received <- io.received + 1
      end;
      on_reply ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      if Util.now () -. !last > 30. then live := false
    | exception (End_of_file | Failure _ | Sf_store.Codec_error.Error _ | Unix.Unix_error _) ->
      live := false
  done

(* Closed loop: at most [window] requests in flight; the sender stops
   issuing after [seconds]. Returns the start time and the ids sent. *)
let closed_loop io ~plan ~window ~seconds =
  let m = Mutex.create () and cv = Condition.create () in
  let inflight = ref 0 and abandoned = ref false in
  let sent = Atomic.make 0 and finished = Atomic.make false in
  let t0 = Util.now () in
  let sender () =
    (try
       let id = ref 1 and go = ref true in
       while !go do
         Mutex.lock m;
         while !inflight >= window && not !abandoned do
           Condition.wait cv m
         done;
         incr inflight;
         let stop = !abandoned in
         Mutex.unlock m;
         if stop || !id > capacity io || Util.now () -. t0 >= seconds then go := false
         else begin
           io.send_at.(!id - 1) <- Util.now ();
           Client.send io.conn (Wire.Search (plan !id));
           Atomic.set sent !id;
           incr id
         end
       done
     with Unix.Unix_error _ -> ());
    Atomic.set finished true
  in
  let th = Thread.create sender () in
  let release () =
    Mutex.lock m;
    decr inflight;
    Condition.signal cv;
    Mutex.unlock m
  in
  receive io ~on_reply:release ~until:(fun () ->
      Atomic.get finished && io.received >= Atomic.get sent);
  Mutex.lock m;
  abandoned := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  Thread.join th;
  (t0, Atomic.get sent)

(* One open-loop step: requests [lo, lo + |dues|) sent at t0 + dues.(k),
   regardless of replies. Waits until the step's replies are in. *)
let open_step io ~plan ~lo ~dues ~t0 =
  let sent = Atomic.make 0 and finished = Atomic.make false in
  let sender () =
    (try
       Array.iteri
         (fun k off ->
           let due = t0 +. off in
           let rec pace () =
             let now = Util.now () in
             if now < due then begin
               Thread.delay (Float.min 0.002 (due -. now));
               pace ()
             end
           in
           pace ();
           io.send_at.(lo + k - 1) <- Util.now ();
           Client.send io.conn (Wire.Search (plan (lo + k)));
           Atomic.set sent (k + 1))
         dues
     with Unix.Unix_error _ -> ());
    Atomic.set finished true
  in
  let base = io.received in
  let th = Thread.create sender () in
  receive io ~on_reply:ignore ~until:(fun () ->
      Atomic.get finished && io.received - base >= Atomic.get sent);
  Thread.join th

(* ---- the open-loop ladder ------------------------------------------ *)

let limit_ms = 20.

(* 4000 req/s times powers of 1.25: the latency step, one rung below it
   and a rung every 25% up to six times it, so the knee falls between
   two rungs. A rung of 0.67 s (a 30 s run) holds at least 2100
   requests, 21 beyond its p99. *)
let latency_rate = 4000.
let ladder = List.init 10 (fun k -> latency_rate *. (1.25 ** float_of_int (k - 1)))

(* The latency rung runs three rungs' time, for a p99 with eighty
   samples beyond it in every climb. *)
let rung_s ~step_s rate = if rate = latency_rate then 3. *. step_s else step_s

type step = {
  rate : float;
  lat_ms : float array;  (** from each request's due time *)
  late_ms : float array;  (** send time minus due time *)
  p99_ms : float;
  ratio : float;  (** schedule span over reply span: 1 when keeping up *)
  errors : int;
  missing : int;
  ok : bool;
  cpu_s : float;  (** server CPU from the rung's start until its replies are in *)
}

(* One climb up the ladder from plan id [lo], ending with the first
   rung that fails; [cpu ()] reads the server's CPU seconds. Returns
   the rungs and the next free id. *)
let climb io ~plan ~seed ~pass ~lo ~step_s ~cpu =
  let root = Rng.split_at (Rng.split_at (Rng.of_seed seed) 2) pass in
  let rec go k lo acc = function
    | [] -> (List.rev acc, lo)
    | rate :: rest ->
      let rng = Rng.split_at root k in
      let count = max 20 (int_of_float (rate *. rung_s ~step_s rate)) in
      if lo + count - 1 > capacity io then (List.rev acc, lo)
      else begin
        let at = ref 0. in
        let dues =
          Array.init count (fun _ ->
              at := !at -. (log (1. -. Rng.unit_float rng) /. rate);
              !at)
        in
        let cpu0 = cpu () in
        let t0 = Util.now () in
        open_step io ~plan ~lo ~dues ~t0;
        let cpu_s = cpu () -. cpu0 in
        let lat = ref [] and late = ref [] and errors = ref 0 and missing = ref 0 in
        let last = ref t0 in
        for k = 0 to count - 1 do
          let i = lo + k - 1 in
          match Bytes.get io.status i with
          | 'r' ->
            lat := (io.recv_at.(i) -. (t0 +. dues.(k))) *. 1e3 :: !lat;
            late := (io.send_at.(i) -. (t0 +. dues.(k))) *. 1e3 :: !late;
            last := Float.max !last io.recv_at.(i)
          | 'e' -> incr errors
          | _ -> incr missing
        done;
        let lat_ms = Array.of_list !lat in
        let p99_ms = if lat_ms = [||] then infinity else Util.quantile lat_ms 0.99 in
        let ratio = dues.(count - 1) /. Float.max 1e-9 (!last -. t0) in
        let ok = !errors = 0 && !missing = 0 && p99_ms <= limit_ms && ratio >= 0.98 in
        let s =
          { rate; lat_ms; late_ms = Array.of_list !late; p99_ms; ratio; errors = !errors;
            missing = !missing; ok; cpu_s }
        in
        if ok then go (k + 1) (lo + count) (s :: acc) rest else (List.rev (s :: acc), lo + count)
      end
  in
  go 0 lo [] ladder

(* The highest rate meeting the limit, interpolated in log p99 between
   the last rung that held and the first that did not, so that it moves
   continuously rather than by whole rungs. *)
let goodput steps =
  let rec go prev = function
    | [] -> ( match prev with Some p -> p.rate | None -> 0.)
    | s :: rest when s.ok -> go (Some s) rest
    | s :: _ -> (
      match prev with
      | None -> 0.
      | Some p ->
        let frac =
          if s.p99_ms > limit_ms && Float.is_finite s.p99_ms && s.p99_ms > p.p99_ms then
            (log limit_ms -. log p.p99_ms) /. (log s.p99_ms -. log p.p99_ms)
          else 0.
        in
        p.rate +. (Float.min 1. (Float.max 0. frac) *. (s.rate -. p.rate)))
  in
  go None steps

(* ---- in-process replay --------------------------------------------- *)

type replayer = {
  graph : Sf_graph.Ugraph.t;
  master : Rng.t;
  table : (string * Strategy.t) list;
  n_vertices : int;
}

(* The portfolio Server.create builds, in its dispatch order. *)
let strategy_table () =
  Sf_search.Strategies.weak_portfolio ()
  @ Sf_search.Strategies.strong_portfolio ()
  @ [ Sf_search.Strategies.random_edge ~skip_known:false ]
  |> List.map (fun s -> (s.Strategy.name, s))

let replayer env t =
  let graph = Sf_store.Csr_codec.load_ugraph ~path:(graph_path env t) () in
  { graph; master = Rng.of_seed env.Util.seed; table = strategy_table ();
    n_vertices = Sf_graph.Ugraph.n_vertices graph }

(* Server.handle_search's success path, one public call at a time. *)
let serve ?spans ?(acc : Spans.counts option) r (s : Wire.search) =
  let span name f = match spans with None -> f () | Some sp -> Spans.with_span sp name ~id:s.id f in
  let strategy = List.assoc s.strategy r.table in
  let target = Option.value s.target ~default:r.n_vertices in
  let source = Option.value s.source ~default:(if target = 1 then 2 else 1) in
  let rng = Rng.split_at r.master s.id in
  let stop_at = if s.stop_at_neighbor then Runner.At_neighbor else Runner.At_target in
  let w0 = if acc = None then 0. else Util.allocated_words () in
  let oracle =
    span "oracle.setup" (fun () -> Oracle.start ~rng strategy.Strategy.model r.graph ~source ~target)
  in
  Option.iter
    (fun a -> a.Spans.alloc_words <- a.Spans.alloc_words +. Util.allocated_words () -. w0)
    acc;
  let o = span "search.step" (fun () -> Runner.run ?budget:s.budget ~stop_at ~rng strategy oracle) in
  Option.iter (fun a -> a.Spans.requests <- a.Spans.requests + o.Runner.total_requests) acc;
  let path_len =
    if Oracle.target_found oracle then List.length (Oracle.discovery_path oracle target) - 1 else 0
  in
  Wire.Search_reply
    { Wire.sr_id = s.id; sr_total_requests = o.Runner.total_requests; sr_to_target = o.Runner.to_target;
      sr_to_neighbor = o.Runner.to_neighbor; sr_discovered = o.Runner.discovered;
      sr_gave_up = o.Runner.gave_up; sr_path_len = path_len }

(* One request as the server sees it: pop and decode the frame, search,
   encode and frame the reply. *)
let replay_one ?spans ?acc r ~id frame =
  let span name f = match spans with None -> f () | Some sp -> Spans.with_span sp name ~id f in
  span "serve.request" (fun () ->
      let s =
        span "wire.decode" (fun () ->
            match Wire.pop frame ~pos:0 with
            | `Frame (payload, _) -> (
              match Wire.decode_request payload with
              | Wire.Search s -> s
              | _ -> failwith "replay: not a search")
            | `Need_more | `Bad _ -> failwith "replay: bad frame")
      in
      let reply = serve ?spans ?acc r s in
      let out = span "wire.encode" (fun () -> Wire.frame (Wire.encode_response reply)) in
      (reply, out))

(* Load's reply digest: CRC-32 over re-encoded replies in id order,
   each payload's own CRC tail excluded. *)
let crc replies =
  Array.fold_left
    (fun crc resp ->
      let s = Wire.encode_response resp in
      Sf_store.Crc32.sub ~init:crc s ~pos:0 ~len:(String.length s - 4))
    0l replies

type replay = {
  replies : Wire.response array;
  service_s : float array;  (** per request, untraced *)
  plain_s : float;  (** summed untraced service time *)
  traced_s : float;  (** summed traced service time; 0 without spans *)
  traced_ok : bool;  (** every traced reply equals its untraced one *)
  alloc_words : float;  (** allocated by the untraced calls *)
  major : int;  (** major collections during the untraced calls *)
  bytes : int;  (** request frames plus reply frames *)
}

(* Replay the requests [ids]. With [spans], each request is replayed
   twice in a row, untraced then traced, so the pair runs at the same
   host speed and their difference is the tracing overhead. *)
let replay ?spans ?acc r ~plan ~ids =
  let service_s = Array.make (Array.length ids) 0. in
  let bytes = ref 0 and traced_s = ref 0. and traced_ok = ref true in
  let alloc = ref 0. and major = ref 0 in
  let replies =
    Array.mapi
      (fun i id ->
        let frame = Wire.frame (Wire.encode_request (Wire.Search (plan id))) in
        let w0 = Util.allocated_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
        let t = Util.now () in
        let reply, out = replay_one r ~id frame in
        service_s.(i) <- Util.now () -. t;
        alloc := !alloc +. Util.allocated_words () -. w0;
        major := !major + (Gc.quick_stat ()).Gc.major_collections - m0;
        bytes := !bytes + String.length frame + String.length out;
        if spans <> None then begin
          let t = Util.now () in
          let again, _ = replay_one ?spans ?acc r ~id frame in
          traced_s := !traced_s +. Util.now () -. t;
          if Wire.encode_response again <> Wire.encode_response reply then traced_ok := false
        end;
        reply)
      ids
  in
  { replies; service_s; plain_s = Util.sum service_s; traced_s = !traced_s; traced_ok = !traced_ok;
    alloc_words = !alloc; major = !major; bytes = !bytes }

(* ---- one run ------------------------------------------------------- *)

let warm_up env = if env.Util.smoke then env.Util.seconds /. 10. else 2.
let window_s env = if env.Util.smoke then env.Util.seconds /. 10. else 1.

(* The sampled ids that were sent, in order. *)
let sampled_sent io =
  let ids = ref [] in
  for i = capacity io downto 1 do
    if io.send_at.(i - 1) > 0. && io.keep i then ids := i :: !ids
  done;
  Array.of_list !ids

(* A closed loop from id 1 for [seconds], adding throughput_per_s and
   cpu_ms_per_op to [r]. Returns the ids sent and the latencies from
   send of the requests sent after the warm-up. *)
let closed_phase env r io ~server ~plan ~window ~seconds =
  let cpu0 = Util.cpu_s server.pid in
  let t0, sent = closed_loop io ~plan ~window ~seconds in
  R.check r "plan_capacity" (sent < capacity io)
    (Printf.sprintf "%d of %d plan ids sent" sent (capacity io));
  let warm = t0 +. warm_up env and w = window_s env in
  let n_win = int_of_float ((t0 +. seconds -. warm) /. w) in
  let counts = Array.make (max 0 n_win) 0. in
  let lat = ref [] and replies = ref 0 in
  for i = 0 to sent - 1 do
    if answered io i then begin
      incr replies;
      let k = int_of_float ((io.recv_at.(i) -. warm) /. w) in
      if io.recv_at.(i) >= warm && k < n_win then counts.(k) <- counts.(k) +. 1.;
      if io.send_at.(i) >= warm then lat := (io.recv_at.(i) -. io.send_at.(i)) *. 1e3 :: !lat
    end
  done;
  (* The host alternates between a fast and a slow state every few
     seconds, so a median of 1-s windows reports whichever state held
     most windows; the mean over the measured interval averages the
     states. The windows still feed the history file. *)
  r.R.per_op_ns <- Array.map (fun c -> 1e9 *. w /. Float.max c 1.) counts;
  R.add ~n:(Array.length counts) r "throughput_per_s" (Util.sum counts /. (float_of_int n_win *. w)) "1/s";
  R.add ~n:!replies r "cpu_ms_per_op"
    ((Util.cpu_s server.pid -. cpu0) *. 1e3 /. float_of_int (max 1 !replies))
    "ms";
  (sent, Array.of_list !lat)

let success (s : Wire.search) = function
  | Wire.Search_reply sr ->
    if s.stop_at_neighbor then sr.Wire.sr_to_neighbor <> None else sr.Wire.sr_to_target <> None
  | _ -> false

let run env t ~spans_out =
  let r = R.create t.name in
  let plan = plan t ~seed:env.Util.seed in
  let sqrt_n = sqrt (float_of_int t.n) in
  (* set-up, several times; the last server is the one measured *)
  let setups = if env.Util.smoke then 1 else if t.n > 100_000 then 5 else 25 in
  let rec setup k acc =
    let s, dt = start_server env t in
    if k = setups then (s, List.rev (dt :: acc))
    else begin
      ignore (stop_server s);
      setup (k + 1) (dt :: acc)
    end
  in
  let server, setup_times = setup 1 [] in
  R.add ~n:setups r "setup_s" (Util.median (Array.of_list setup_times)) "s";
  let every = if env.Util.traced then t.trace_every else t.check_every in
  (* room for three times the fastest rate measured, 20k req/s *)
  let io =
    make_io (Client.connect server.ep)
      ~cap:(max 1000 (int_of_float (env.Util.seconds *. 60_000.)))
      ~keep:(sampler ~seed:env.Util.seed ~every:(if env.Util.smoke then max 1 (every / 50) else every))
  in
  let st0 = stats server in
  let t_load = Util.now () in
  (match t.load with
    | Closed window ->
      let sent, lat = closed_phase env r io ~server ~plan ~window ~seconds:env.Util.seconds in
      R.add_pct r "latency_p50_ms" lat 0.5 ~scale:1. "ms";
      R.add_pct r "latency_p99_ms" lat 0.99 ~scale:1. "ms";
      r.R.attempted <- sent
    | Closed_then_ladder window when not env.Util.traced ->
      let sent, _ = closed_phase env r io ~server ~plan ~window ~seconds:env.Util.seconds in
      r.R.attempted <- sent
    | Closed_then_ladder window ->
      let closed_s = env.Util.seconds /. 3. in
      let sent, _ = closed_phase env r io ~server ~plan ~window ~seconds:closed_s in
      (* Three climbs over the rest of the run, each about 10 rung
         lengths. The goodput is a median over the climbs, and the
         latency-rung percentiles too. *)
      let passes = if env.Util.smoke then 1 else 3 in
      let step_s = (env.Util.seconds -. closed_s) /. float_of_int (10 * passes) in
      let climbs =
        List.rev
          (snd
             (List.fold_left
                (fun (lo, acc) pass ->
                  let steps, lo =
                    climb io ~plan ~seed:env.Util.seed ~pass ~lo ~step_s ~cpu:(fun () ->
                        Util.cpu_s server.pid)
                  in
                  (lo, steps :: acc))
                (sent + 1, []) (List.init passes Fun.id)))
      in
      let goodputs = Array.of_list (List.map goodput climbs) in
      let steps = List.concat climbs in
      let rungs = List.filter (fun s -> s.rate = latency_rate && s.lat_ms <> [||]) steps in
      let pct name f q =
        let per_climb = Array.of_list (List.map (fun s -> Util.quantile (f s) q) rungs) in
        let n = List.fold_left (fun a s -> a + Array.length (f s)) 0 rungs in
        R.add ~n r name (if per_climb = [||] then 0. else Util.median per_climb) "ms"
      in
      R.add ~n:passes r "ladder.goodput_per_s" (Util.median goodputs) "1/s";
      pct "latency_p50_ms" (fun s -> s.lat_ms) 0.5;
      pct "latency_p99_ms" (fun s -> s.lat_ms) 0.99;
      pct "loadgen.late_p99_ms" (fun s -> s.late_ms) 0.99;
      let rung_replies = List.fold_left (fun a s -> a + Array.length s.lat_ms) 0 rungs in
      R.add ~n:rung_replies r "ladder.4000.cpu_ms_per_op"
        (List.fold_left (fun a s -> a +. s.cpu_s) 0. rungs *. 1e3 /. float_of_int (max 1 rung_replies))
        "ms";
      List.iteri
        (fun pass steps ->
          R.add r (Printf.sprintf "ladder.%d.goodput_per_s" pass) goodputs.(pass) "1/s";
          List.iter
            (fun s ->
              let tag = Printf.sprintf "ladder.%d.%.0f" pass s.rate in
              R.add ~n:(Array.length s.lat_ms) r (tag ^ ".p99_ms") s.p99_ms "ms";
              R.add r (tag ^ ".achieved_ratio") s.ratio "ratio")
            steps)
        climbs;
      r.R.attempted <-
        List.fold_left (fun a s -> a + Array.length s.lat_ms + s.errors + s.missing) sent steps);
  let t_end = Util.now () in
  (* errors and missing replies both count as failed *)
  let completed = ref 0 in
  Bytes.iter (fun c -> if c = 'r' then incr completed) io.status;
  let completed = !completed in
  let failed = r.R.attempted - completed in
  r.R.failed <- failed;
  R.add r "fail_pct" (100. *. float_of_int failed /. float_of_int (max 1 r.R.attempted)) "%";
  let st1 = stats server in
  (* correctness: the socket replies against the in-process replay *)
  let replayer = replayer env t in
  let sent = sampled_sent io in
  let sent = if env.Util.smoke then Array.sub sent 0 (min 24 (Array.length sent)) else sent in
  let replied, unanswered = List.partition (Hashtbl.mem io.kept) (Array.to_list sent) in
  let ids = Array.of_list replied in
  let socket = Array.map (Hashtbl.find io.kept) ids in
  let sampled = Array.length ids in
  (* window-1 round trips on the same connection, now idle *)
  let probe = if env.Util.traced then min t.probe sampled else 0 in
  Client.set_receive_timeout io.conn 0.;
  let rtt =
    Array.init probe (fun i ->
        let t0 = Util.now () in
        let reply = Client.call io.conn (Wire.Search (plan ids.(i))) in
        let dt = Util.now () -. t0 in
        if Wire.encode_response reply <> Wire.encode_response socket.(i) then
          R.check r "probe_reply" false (Printf.sprintf "id %d differs" ids.(i));
        dt)
  in
  let spans = Spans.create () in
  let acc = Spans.counts () in
  let rp =
    if env.Util.traced then replay ~spans ~acc replayer ~plan ~ids else replay replayer ~plan ~ids
  in
  R.check r "replay_sample"
    (sampled >= 1 && unanswered = [])
    (Printf.sprintf "%d sampled requests, ids %d to %d, %d unanswered" sampled
       (if sampled = 0 then 0 else ids.(0))
       (if sampled = 0 then 0 else ids.(sampled - 1))
       (List.length unanswered));
  R.check r "reply_crc32"
    (crc socket = crc rp.replies)
    (Printf.sprintf "socket 0x%08lx replay 0x%08lx over %d replies" (crc socket) (crc rp.replies)
       sampled);
  if env.Util.traced && sampled >= 1 then begin
    R.check r "traced_replay" rp.traced_ok "traced replies equal untraced ones";
    let fsampled = float_of_int sampled in
    let d name = Spans.durations spans name in
    R.add_pct r "oracle.setup_us_p50" (d "oracle.setup") 0.5 ~scale:1e6 "us";
    R.add_pct r "oracle.setup_us_p90" (d "oracle.setup") 0.9 ~scale:1e6 "us";
    R.add r "oracle.setup_alloc_kb" (acc.Spans.alloc_words *. 8. /. 1024. /. fsampled) "kB";
    let step_s = Util.sum (d "search.step") in
    R.add r "oracle.ns_per_request" (step_s *. 1e9 /. float_of_int (max 1 acc.Spans.requests)) "ns";
    R.add_pct r "search.step_us_p50" (d "search.step") 0.5 ~scale:1e6 "us";
    R.add_pct r "search.step_us_p90" (d "search.step") 0.9 ~scale:1e6 "us";
    R.add r "gc.alloc_mb_per_op" (rp.alloc_words *. 8. /. 1048576. /. fsampled) "MB";
    R.add r "gc.major_per_kop" (float_of_int rp.major *. 1000. /. fsampled) "count";
    R.add_pct r "wire.decode_us" (d "wire.decode") 0.5 ~scale:1e6 "us";
    R.add_pct r "wire.encode_us" (d "wire.encode") 0.5 ~scale:1e6 "us";
    R.add r "wire.bytes_per_op" (float_of_int rp.bytes /. fsampled) "B";
    (* self-time shares of the replayed request; the server's share is
       what a window-1 round trip adds to the same requests in-process *)
    let self = Spans.self_by_name spans in
    let self_of name = Option.value (Hashtbl.find_opt self name) ~default:0. in
    let total = Util.sum (d "serve.request") in
    R.add r "share.oracle.setup" (self_of "oracle.setup" /. total) "ratio";
    R.add r "share.search.step" (self_of "search.step" /. total) "ratio";
    R.add r "share.wire" ((self_of "wire.decode" +. self_of "wire.encode") /. total) "ratio";
    let service = Array.sub rp.service_s 0 probe in
    if probe > 0 then begin
      let overhead = Util.median rtt -. Util.median service in
      R.add r "share.server" (Float.max 0. (overhead /. Util.median rtt)) "ratio";
      R.add ~n:probe r "server.rtt_overhead_us" (overhead *. 1e6) "us"
    end;
    R.add r "trace.overhead_pct" ((rp.traced_s -. rp.plain_s) /. rp.plain_s *. 100.) "%";
    (* exact counts: pure functions of the seed, over the first sampled
       ids, which every run reaches *)
    let first = Array.sub rp.replies 0 (min t.exact sampled) in
    let n_first = Array.length first in
    let costs, found =
      Array.fold_left
        (fun (c, f) resp ->
          match resp with
          | Wire.Search_reply sr ->
            let hit = if success (plan sr.Wire.sr_id) resp then 1 else 0 in
            (c + sr.Wire.sr_total_requests, f + hit)
          | _ -> (c, f))
        (0, 0) first
    in
    let mean_cost = float_of_int costs /. float_of_int n_first in
    R.add ~n:n_first r "oracle.requests_per_query" mean_cost "count";
    R.add ~n:n_first r "search.found_ratio" (float_of_int found /. float_of_int n_first) "ratio";
    R.add ~n:n_first r "search.cost_over_sqrt_n" (mean_cost /. sqrt_n) "ratio";
    List.iter
      (fun (name, _) ->
        let mine =
          Array.to_list first
          |> List.filter_map (function
               | Wire.Search_reply sr when (plan sr.Wire.sr_id).Wire.strategy = name ->
                 Some (float_of_int sr.Wire.sr_total_requests)
               | _ -> None)
          |> Array.of_list
        in
        R.add ~n:(Array.length mine) r ("search.cost_over_sqrt_n." ^ name) (Util.mean mine /. sqrt_n)
          "ratio")
      t.mix;
    let r_hw = float_of_int acc.Spans.requests /. step_s in
    R.add r "search.oracle_req_per_s" r_hw "1/s";
    let sample_cost = float_of_int acc.Spans.requests /. fsampled in
    R.add r "capacity.predicted_per_s" (float_of_int t.jobs *. r_hw /. sample_cost) "1/s";
    (* server stage deltas over the load, per request *)
    let served = float_of_int (max 1 (st1.Wire.ss_served - st0.Wire.ss_served)) in
    let per f = float_of_int (f st1 - f st0) /. served in
    R.add r "server.queue_us" (per (fun s -> s.Wire.ss_stage_queue_us)) "us";
    R.add r "server.batch_us" (per (fun s -> s.Wire.ss_stage_batch_us)) "us";
    R.add r "server.search_us" (per (fun s -> s.Wire.ss_stage_search_us)) "us";
    R.add r "server.reply_us" (per (fun s -> s.Wire.ss_stage_reply_us)) "us";
    R.add r "pool.busy_ratio"
      (float_of_int (st1.Wire.ss_stage_search_us - st0.Wire.ss_stage_search_us)
      /. (float_of_int t.jobs *. (t_end -. t_load) *. 1e6))
      "ratio";
    Util.write_file spans_out (Spans.perfetto spans ~process:("e2e " ^ t.name))
  end;
  Client.close io.conn;
  R.add r "rss_peak_mb" (float_of_int (Util.hwm_kb server.pid) /. 1024.) "MB";
  let status = stop_server server in
  R.check r "server_exit" (Util.status_ok status) (Util.describe status);
  if env.Util.traced then begin
    (* the binaries' own timers and histograms, from their manifests *)
    let sm = Util.read_json (server_manifest env t) in
    let gm = Util.read_json (gen_manifest env t) in
    let num j keys = Option.value (Util.json_num j keys) ~default:0. in
    (* each window-1 probe was a batch of one *)
    let probe = float_of_int probe in
    R.add r "server.batch_size"
      ((num sm [ "metrics"; "serve.batch_size"; "sum" ] -. probe)
      /. Float.max 1. (num sm [ "metrics"; "serve.batch_size"; "count" ] -. probe))
      "count";
    R.add r "store.load_s" (num sm [ "metrics"; "store.map_s"; "total_s" ]) "s";
    R.add r "gen.graph_ms" (num gm [ "metrics"; "gen.mori.build_s"; "total_s" ] *. 1e3) "ms"
  end;
  r
