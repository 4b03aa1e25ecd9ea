(* Length-prefixed framing.  The receive buffer and the output queue
   are both one Bytes.t with live bytes in [lo, hi): new bytes land at
   hi, consumed ones advance lo, and only finished payloads are copied
   out. *)

let header_bytes = 4
let read_chunk = 65536 (* the most one [read] asks the kernel for *)

(* an emptied buffer above this size is released, so one huge frame
   does not pin its memory for the rest of the connection *)
let keep_bytes = 1 lsl 20

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

(* the payload length declared at [lo], once the header is in *)
let declared ~min_payload ~max_payload b ~lo ~hi =
  if hi - lo < header_bytes then `Need_more
  else
    (* unsigned 32-bit read: a garbage length like 0xFFFFFFFF must
       surface as oversized, not as a negative int *)
    let len = Int32.to_int (Bytes.get_int32_le b lo) land 0xFFFF_FFFF in
    if len < min_payload || len > max_payload then
      `Bad (Printf.sprintf "frame length %d outside %d..%d" len min_payload max_payload)
    else `Len len

let pop ~min_payload ~max_payload s ~pos =
  let hi = String.length s in
  match declared ~min_payload ~max_payload (Bytes.unsafe_of_string s) ~lo:pos ~hi with
  | `Len len when hi - pos - header_bytes >= len ->
    `Frame (String.sub s (pos + header_bytes) len, pos + header_bytes + len)
  | `Len _ -> `Need_more
  | (`Need_more | `Bad _) as r -> r

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

type buf = { mutable b : Bytes.t; mutable lo : int; mutable hi : int }

let empty () = { b = Bytes.empty; lo = 0; hi = 0 }

(* Room for [want] more bytes at the tail.  Compaction moves the live
   bytes to the front only once the consumed prefix is at least as
   long, so each moved byte was paid for by a consumed one; otherwise
   the buffer doubles.  Either way the cost is linear in the bytes that
   pass through. *)
let reserve t want =
  let cap = Bytes.length t.b in
  if cap - t.hi < want then begin
    let live = t.hi - t.lo in
    if t.lo >= live && live + want <= cap then Bytes.blit t.b t.lo t.b 0 live
    else begin
      let cap = ref (max 4096 cap) in
      while !cap < live + want do
        cap := 2 * !cap
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.b t.lo nb 0 live;
      t.b <- nb
    end;
    t.lo <- 0;
    t.hi <- live
  end

let consume t n =
  t.lo <- t.lo + n;
  if t.lo = t.hi then begin
    t.lo <- 0;
    t.hi <- 0;
    if Bytes.length t.b > keep_bytes then t.b <- Bytes.empty
  end

type reader = { r : buf; mutable chunk : int; min_payload : int; max_payload : int }

let reader ~min_payload ~max_payload = { r = empty (); chunk = 4096; min_payload; max_payload }
let buffered t = t.r.hi - t.r.lo
let clear t = consume t.r (buffered t)

let declared_at t =
  declared ~min_payload:t.min_payload ~max_payload:t.max_payload t.r.b ~lo:t.r.lo ~hi:t.r.hi

(* [chunk] starts at 4 KiB and doubles, up to 64 KiB, each time a read
   fills it: a busy connection reads as much per call as the kernel
   holds, and a quiet one keeps a small buffer (a large long-lived
   block slows the major GC's pace for the whole process) *)
let read t fd =
  reserve t.r t.chunk;
  let n = Unix.read fd t.r.b t.r.hi t.chunk in
  t.r.hi <- t.r.hi + n;
  if n = t.chunk then t.chunk <- min read_chunk (2 * t.chunk);
  n

let next t =
  match declared_at t with
  | `Len len when buffered t - header_bytes >= len ->
    let payload = Bytes.sub_string t.r.b (t.r.lo + header_bytes) len in
    consume t.r (header_bytes + len);
    `Frame payload
  | `Len _ -> `Need_more
  | (`Need_more | `Bad _) as r -> r

type queue = buf

let queue = empty
let pending q = q.hi - q.lo

let push q payload =
  let n = String.length payload in
  reserve q (header_bytes + n);
  Bytes.set_int32_le q.b q.hi (Int32.of_int n);
  Bytes.blit_string payload 0 q.b (q.hi + header_bytes) n;
  q.hi <- q.hi + header_bytes + n

let flush q fd =
  let n = Unix.write fd q.b q.lo (pending q) in
  consume q n;
  n
