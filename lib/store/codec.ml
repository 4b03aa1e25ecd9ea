module Digraph = Sf_graph.Digraph
module Ugraph = Sf_graph.Ugraph
module E = Codec_error

let magic = "SFGB"
let version = 1

(* flags byte *)
let flag_permutation = 0x01

let obs_read_timer = Sf_obs.Registry.timer "store.read_s"
let obs_write_timer = Sf_obs.Registry.timer "store.write_s"
let obs_bytes_read = Sf_obs.Registry.counter "store.bytes_read"
let obs_bytes_written = Sf_obs.Registry.counter "store.bytes_written"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let encode g =
  let n = Digraph.n_vertices g and m = Digraph.n_edges g in
  (* Rows in source order, insertion order within a row; [ids] is the
     concatenated canonical edge-id sequence. *)
  let degrees = Array.make n 0 in
  Digraph.iter_edges g (fun e -> degrees.(e.Digraph.src - 1) <- degrees.(e.Digraph.src - 1) + 1);
  let row_start = Array.make (n + 1) 0 in
  for v = 1 to n do
    row_start.(v) <- row_start.(v - 1) + degrees.(v - 1)
  done;
  let fill = Array.copy row_start in
  let ids = Array.make m 0 and dsts = Array.make m 0 in
  Digraph.iter_edges g (fun e ->
      let slot = fill.(e.Digraph.src - 1) in
      ids.(slot) <- e.Digraph.id;
      dsts.(slot) <- e.Digraph.dst;
      fill.(e.Digraph.src - 1) <- slot + 1);
  let canonical = ref true in
  Array.iteri (fun k id -> if id <> k then canonical := false) ids;
  let buf = Buffer.create (16 + (2 * m) + n) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr (if !canonical then 0 else flag_permutation));
  Varint.write buf n;
  Varint.write buf m;
  Array.iter (fun d -> Varint.write buf d) degrees;
  for v = 1 to n do
    (* delta-encode a row against its own source: growth models attach
       near their own timestamp, so deltas stay short *)
    let prev = ref v in
    for slot = row_start.(v - 1) to row_start.(v) - 1 do
      Varint.write_signed buf (dsts.(slot) - !prev);
      prev := dsts.(slot)
    done
  done;
  if not !canonical then begin
    let prev = ref 0 in
    Array.iter
      (fun id ->
        Varint.write_signed buf (id - !prev);
        prev := id)
      ids
  end;
  Crc32.seal buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let looks_binary s = String.length s >= 4 && String.sub s 0 4 = magic

let decode s =
  let len = String.length s in
  if len < 4 then E.fail (E.Truncated "magic");
  if String.sub s 0 4 <> magic then E.fail E.Bad_magic;
  if len < 10 then E.fail (E.Truncated "header");
  let v = Char.code s.[4] in
  if v <> version then E.fail (E.Unsupported_version v);
  let payload_end = Crc32.check_sealed s in
  let flags = Char.code s.[5] in
  if flags land lnot flag_permutation <> 0 then
    E.fail (E.Malformed (Printf.sprintf "unknown flag bits %#x" flags));
  (* varint reads are bounds-checked against the whole string; a read
     that strays into the checksum tail is caught by the final
     position check below *)
  let n, pos = Varint.read s ~pos:6 in
  let m, pos = Varint.read s ~pos in
  (* every vertex costs >= 1 degree byte and every edge >= 1 delta
     byte, so counts beyond the input length cannot be honest — reject
     before allocating *)
  if n > len || m > len then
    E.fail (E.Malformed (Printf.sprintf "counts n=%d m=%d exceed input size %d" n m len));
  let degrees = Array.make (max n 1) 0 in
  let pos = ref pos in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    let d, next = Varint.read s ~pos:!pos in
    degrees.(i) <- d;
    sum := !sum + d;
    pos := next
  done;
  if !sum <> m then
    E.fail (E.Malformed (Printf.sprintf "degree sum %d disagrees with edge count %d" !sum m));
  let dsts = Array.make (max m 1) 0 in
  let slot = ref 0 in
  for v = 1 to n do
    let prev = ref v in
    for _ = 1 to degrees.(v - 1) do
      let delta, next = Varint.read_signed s ~pos:!pos in
      let dst = !prev + delta in
      if dst < 1 || dst > n then
        E.fail (E.Malformed (Printf.sprintf "edge endpoint %d outside 1..%d" dst n));
      dsts.(!slot) <- dst;
      prev := dst;
      incr slot;
      pos := next
    done
  done;
  let ids =
    if flags land flag_permutation = 0 then Array.init m (fun k -> k)
    else begin
      let ids = Array.make (max m 1) 0 in
      let seen = Array.make (max m 1) false in
      let prev = ref 0 in
      for k = 0 to m - 1 do
        let delta, next = Varint.read_signed s ~pos:!pos in
        let id = !prev + delta in
        if id < 0 || id >= m || seen.(id) then
          E.fail (E.Malformed "edge-order section is not a permutation");
        seen.(id) <- true;
        ids.(k) <- id;
        prev := id;
        pos := next
      done;
      ids
    end
  in
  if !pos <> payload_end then
    E.fail (E.Malformed (Printf.sprintf "%d trailing payload byte(s)" (payload_end - !pos)));
  (* Replay edges in insertion (id) order so ids come out identical. *)
  let srcs_by_id = Array.make (max m 1) 0 and dsts_by_id = Array.make (max m 1) 0 in
  let slot = ref 0 in
  for v = 1 to n do
    for _ = 1 to degrees.(v - 1) do
      let id = ids.(!slot) in
      srcs_by_id.(id) <- v;
      dsts_by_id.(id) <- dsts.(!slot);
      incr slot
    done
  done;
  let g = Digraph.create ~expected_vertices:n () in
  Digraph.add_vertices g n;
  for id = 0 to m - 1 do
    ignore (Digraph.add_edge g ~src:srcs_by_id.(id) ~dst:dsts_by_id.(id))
  done;
  g

(* ------------------------------------------------------------------ *)
(* The undirected view                                                 *)
(* ------------------------------------------------------------------ *)

let encode_ugraph u = encode (Ugraph.to_digraph u)
let decode_ugraph s = Ugraph.of_digraph (decode s)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let trace_file op ~path ~bytes =
  if Sf_obs.Trace.active () then
    Sf_obs.Trace.instant op
      ~args:[ ("path", Sf_obs.Trace.Str path); ("bytes", Sf_obs.Trace.Int bytes) ]

let write_graph_file g ~path =
  Sf_obs.Timer.time obs_write_timer (fun () ->
      let bytes = encode g in
      let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      (try
         output_string oc bytes;
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path;
      if Sf_obs.Registry.enabled () then
        Sf_obs.Counter.add obs_bytes_written (String.length bytes);
      trace_file "store.write" ~path ~bytes:(String.length bytes))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

let read_graph_file ~path =
  Sf_obs.Timer.time obs_read_timer (fun () ->
      let bytes = read_file path in
      if Sf_obs.Registry.enabled () then
        Sf_obs.Counter.add obs_bytes_read (String.length bytes);
      trace_file "store.read" ~path ~bytes:(String.length bytes);
      decode bytes)

let read_any_file ~path =
  let bytes = read_file path in
  if looks_binary bytes then
    Sf_obs.Timer.time obs_read_timer (fun () ->
        if Sf_obs.Registry.enabled () then
          Sf_obs.Counter.add obs_bytes_read (String.length bytes);
        trace_file "store.read" ~path ~bytes:(String.length bytes);
        decode bytes)
  else
    try Sf_graph.Gio.of_edge_list bytes
    with Failure msg -> failwith (path ^ ": " ^ msg)
