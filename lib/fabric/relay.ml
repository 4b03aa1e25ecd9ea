(* The worker-telemetry relay codec: what rides inside a
   Proto.Telemetry body.  A batch is the observability delta a worker
   accumulated between two checkpoint writes — its buffered trace
   events (worker-local sequence numbers intact) and the named counter
   deltas the checkpoint just persisted (fabric.* machinery counters
   excluded, as in Ckpt).  Encoding is canonical and decode is strict
   in the house codec discipline: varint sizes, IEEE-754 bits for
   floats, zigzag varints where a value can be negative, and a
   trailing-bytes check — the enclosing Proto frame supplies the
   CRC-32.  Relaying after (never before) the checkpoint write keeps
   relayed <= checkpointed for any crash history, so the coordinator
   can reconcile exact totals from checkpoints at the end of the run
   (Coordinator). *)

module Varint = Sf_store.Varint
module E = Sf_store.Codec_error
module Trace = Sf_obs.Trace

let version = 1

type batch = {
  r_events : Trace.event list;
  r_counters : (string * int) list;
}

(* ---- assign-body flag ---------------------------------------------- *)

(* The coordinator tells a worker to relay by putting this token in
   the Assign body; an empty body (the pre-relay grammar) means run
   silent.  Carried per job, so no worker argv changes are needed. *)
let assign_trace_token = "trace:1"

let assign_body ~trace = if trace then assign_trace_token else ""
let assign_wants_trace body = body = assign_trace_token

(* ---- encoding ------------------------------------------------------ *)

let write_f64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  Buffer.add_bytes buf b

let tag_int = 0
let tag_float = 1
let tag_str = 2
let tag_bool = 3
let tag_ints = 4

let write_arg buf (k, a) =
  Varint.write_string buf k;
  match a with
  | Trace.Int i ->
    Buffer.add_char buf (Char.chr tag_int);
    Varint.write_signed buf i
  | Trace.Float f ->
    Buffer.add_char buf (Char.chr tag_float);
    write_f64 buf f
  | Trace.Str s ->
    Buffer.add_char buf (Char.chr tag_str);
    Varint.write_string buf s
  | Trace.Bool b ->
    Buffer.add_char buf (Char.chr tag_bool);
    Buffer.add_char buf (if b then '\001' else '\000')
  | Trace.Ints l ->
    Buffer.add_char buf (Char.chr tag_ints);
    Varint.write buf (List.length l);
    List.iter (Varint.write_signed buf) l

let kind_begin = 0
let kind_end = 1
let kind_instant = 2
let kind_counter = 3

let write_event buf (e : Trace.event) =
  Varint.write_string buf e.name;
  (match e.kind with
  | Trace.Begin -> Buffer.add_char buf (Char.chr kind_begin)
  | Trace.End -> Buffer.add_char buf (Char.chr kind_end)
  | Trace.Instant -> Buffer.add_char buf (Char.chr kind_instant)
  | Trace.Counter v ->
    Buffer.add_char buf (Char.chr kind_counter);
    write_f64 buf v);
  write_f64 buf e.ts;
  Varint.write buf e.seq;
  Varint.write buf (List.length e.args);
  List.iter (write_arg buf) e.args

let encode b =
  let buf = Buffer.create 256 in
  Buffer.add_char buf (Char.chr version);
  Varint.write buf (List.length b.r_counters);
  List.iter
    (fun (name, v) ->
      if v < 0 then invalid_arg "Relay.encode: negative counter delta";
      Varint.write_string buf name;
      Varint.write buf v)
    b.r_counters;
  Varint.write buf (List.length b.r_events);
  List.iter (write_event buf) b.r_events;
  Buffer.contents buf

(* ---- decoding ------------------------------------------------------ *)

let read_string s ~pos =
  let n, pos = Varint.read s ~pos in
  if pos + n > String.length s then E.fail (E.Truncated "relay string");
  (String.sub s pos n, pos + n)

let read_byte s ~pos =
  if pos >= String.length s then E.fail (E.Truncated "relay byte");
  (Char.code s.[pos], pos + 1)

let read_f64 s ~pos =
  if pos + 8 > String.length s then E.fail (E.Truncated "relay float");
  (Int64.float_of_bits (String.get_int64_le s pos), pos + 8)

let read_arg s ~pos =
  let k, pos = read_string s ~pos in
  let tag, pos = read_byte s ~pos in
  if tag = tag_int then
    let v, pos = Varint.read_signed s ~pos in
    ((k, Trace.Int v), pos)
  else if tag = tag_float then
    let v, pos = read_f64 s ~pos in
    ((k, Trace.Float v), pos)
  else if tag = tag_str then
    let v, pos = read_string s ~pos in
    ((k, Trace.Str v), pos)
  else if tag = tag_bool then
    let b, pos = read_byte s ~pos in
    if b > 1 then E.fail (E.Malformed (Printf.sprintf "relay bool byte %d" b));
    ((k, Trace.Bool (b = 1)), pos)
  else if tag = tag_ints then begin
    let n, pos = Varint.read s ~pos in
    let pos = ref pos in
    let l =
      List.init n (fun _ ->
          let v, p = Varint.read_signed s ~pos:!pos in
          pos := p;
          v)
    in
    ((k, Trace.Ints l), !pos)
  end
  else E.fail (E.Malformed (Printf.sprintf "unknown relay arg tag %d" tag))

let read_event s ~pos =
  let name, pos = read_string s ~pos in
  let tag, pos = read_byte s ~pos in
  let kind, pos =
    if tag = kind_begin then (Trace.Begin, pos)
    else if tag = kind_end then (Trace.End, pos)
    else if tag = kind_instant then (Trace.Instant, pos)
    else if tag = kind_counter then
      let v, pos = read_f64 s ~pos in
      (Trace.Counter v, pos)
    else E.fail (E.Malformed (Printf.sprintf "unknown relay event kind %d" tag))
  in
  let ts, pos = read_f64 s ~pos in
  let seq, pos = Varint.read s ~pos in
  let n_args, pos = Varint.read s ~pos in
  let pos = ref pos in
  let args =
    List.init n_args (fun _ ->
        let a, p = read_arg s ~pos:!pos in
        pos := p;
        a)
  in
  ({ Trace.seq; ts; name; kind; args }, !pos)

let decode s =
  let v, pos = read_byte s ~pos:0 in
  if v <> version then E.fail (E.Unsupported_version v);
  let n_counters, pos = Varint.read s ~pos in
  let pos = ref pos in
  let counters =
    List.init n_counters (fun _ ->
        let name, p = read_string s ~pos:!pos in
        let v, p = Varint.read s ~pos:p in
        pos := p;
        (name, v))
  in
  let n_events, p = Varint.read s ~pos:!pos in
  pos := p;
  let events =
    List.init n_events (fun _ ->
        let e, p = read_event s ~pos:!pos in
        pos := p;
        e)
  in
  if !pos <> String.length s then
    E.fail
      (E.Malformed
         (Printf.sprintf "%d trailing relay byte(s)" (String.length s - !pos)));
  { r_events = events; r_counters = counters }
