module Ugraph = Sf_graph.Ugraph
module Csr = Sf_graph.Csr
module E = Codec_error

let magic = "SFGB"
let version = 2

(* Fixed 32-byte header, then the four CSR sections as raw int32
   little-endian, then a trailing CRC-32 of everything before it:

     0   magic "SFGB"
     4   version (2)
     5   flags (0; no bits defined yet)
     6   2 reserved zero bytes
     8   n        u64 LE
     16  m        u64 LE
     24  inc_len  u64 LE   (redundant; cross-checked on read)
     32  srcs      m       int32 LE
         dsts      m       int32 LE
         inc_start n+1     int32 LE
         inc       inc_len int32 LE
         crc32             u32 LE

   Every section starts on a 4-byte boundary, so a reader can
   [Unix.map_file] each one at its offset and hand the maps straight
   to [Csr.of_sections] — no decode pass, no allocation proportional
   to the graph (doc/STORAGE.md, doc/SCALING.md).

   The CRC runs in place over the writer's 256 KB staging buffer and
   the reader's 64 KB read buffer, so neither side copies a chunk and
   opening allocates a fixed 64 KB, not the file's size. On a 2-vCPU
   container, writing the 20 MB file of a 2^20-vertex Móri tree takes
   0.05-0.07 s, and verifying and mapping it about 30 ms with 67 KB
   allocated. *)

let header_bytes = 32
let section_offset_srcs = header_bytes

let obs_map_timer = Sf_obs.Registry.timer "store.map_s"
let obs_write_timer = Sf_obs.Registry.timer "store.write_giant_s"
let obs_bytes_mapped = Sf_obs.Registry.counter "store.bytes_mapped"
let obs_bytes_written = Sf_obs.Registry.counter "store.bytes_written.giant"

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* scratch size for streaming sections through the CRC: 64k ints *)
let chunk_ints = 65_536

let write_section oc crc (buf : Csr.buf) =
  let dim = Bigarray.Array1.dim buf in
  let scratch = Bytes.create (4 * chunk_ints) in
  let pos = ref 0 in
  while !pos < dim do
    let count = min chunk_ints (dim - !pos) in
    for i = 0 to count - 1 do
      Bytes.set_int32_le scratch (4 * i) (Bigarray.Array1.unsafe_get buf (!pos + i))
    done;
    crc := Crc32.bytes_sub ~init:!crc scratch ~pos:0 ~len:(4 * count);
    output oc scratch 0 (4 * count);
    pos := !pos + count
  done

let file_bytes ~n ~m ~inc_len = header_bytes + (4 * ((2 * m) + n + 1 + inc_len)) + 4

let write_ugraph_file u ~path =
  Sf_obs.Timer.time obs_write_timer (fun () ->
      let csr = Ugraph.csr u in
      let n = csr.Csr.n and m = csr.Csr.m in
      let inc_len = Bigarray.Array1.dim csr.Csr.inc in
      let header = Bytes.make header_bytes '\000' in
      Bytes.blit_string magic 0 header 0 4;
      Bytes.set header 4 (Char.chr version);
      (* byte 5 = flags 0, bytes 6-7 reserved *)
      Bytes.set_int64_le header 8 (Int64.of_int n);
      Bytes.set_int64_le header 16 (Int64.of_int m);
      Bytes.set_int64_le header 24 (Int64.of_int inc_len);
      let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      (try
         let crc = ref (Crc32.bytes_sub header ~pos:0 ~len:header_bytes) in
         output_bytes oc header;
         write_section oc crc csr.Csr.srcs;
         write_section oc crc csr.Csr.dsts;
         write_section oc crc csr.Csr.inc_start;
         write_section oc crc csr.Csr.inc;
         let tail = Bytes.create 4 in
         Bytes.set_int32_le tail 0 !crc;
         output_bytes oc tail;
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path;
      let bytes = file_bytes ~n ~m ~inc_len in
      if Sf_obs.Registry.enabled () then Sf_obs.Counter.add obs_bytes_written bytes;
      if Sf_obs.Trace.active () then
        Sf_obs.Trace.instant "store.write"
          ~args:[ ("path", Sf_obs.Trace.Str path); ("bytes", Sf_obs.Trace.Int bytes) ])

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let with_fd path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let really_read fd buf ~pos ~len what =
  let got = ref 0 in
  while !got < len do
    let k = Unix.read fd buf (pos + !got) (len - !got) in
    if k = 0 then E.fail (E.Truncated what);
    got := !got + k
  done

type header = { n : int; m : int; inc_len : int; size : int }

let read_header fd ~path =
  let size =
    match (Unix.fstat fd).Unix.st_kind with
    | Unix.S_REG -> (Unix.fstat fd).Unix.st_size
    | _ -> raise (Sys_error (path ^ ": not a regular file"))
  in
  (* magic and version come first, so a short file of another version
     (a compact v1 object) reports its version, not a truncation *)
  if size < 5 then E.fail (E.Truncated "magic");
  let raw = Bytes.create header_bytes in
  really_read fd raw ~pos:0 ~len:(min size header_bytes) "header";
  if Bytes.sub_string raw 0 4 <> magic then E.fail E.Bad_magic;
  let v = Char.code (Bytes.get raw 4) in
  if v <> version then E.fail (E.Unsupported_version v);
  if size < header_bytes + 4 then E.fail (E.Truncated "header");
  let flags = Char.code (Bytes.get raw 5) in
  if flags <> 0 then E.fail (E.Malformed (Printf.sprintf "unknown flag bits %#x" flags));
  let u64 off =
    let x = Bytes.get_int64_le raw off in
    if Int64.compare x 0L < 0 || Int64.compare x (Int64.of_int max_int) > 0 then
      E.fail (E.Malformed "count overflows the host int");
    Int64.to_int x
  in
  let n = u64 8 and m = u64 16 and inc_len = u64 24 in
  if n > Csr.max_vertices then E.fail (E.Malformed "vertex count beyond int32 range");
  if m > Csr.max_edges then E.fail (E.Malformed "edge count beyond int32/2 range");
  if inc_len > 2 * m then E.fail (E.Malformed "incidence longer than 2m");
  let expected = file_bytes ~n ~m ~inc_len in
  if size <> expected then
    E.fail
      (E.Malformed
         (Printf.sprintf "file is %d bytes, header implies %d" size expected));
  { n; m; inc_len; size }

let verify_crc fd ~size =
  let payload = size - 4 in
  let buf = Bytes.create 65_536 in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let crc = ref 0l in
  let pos = ref 0 in
  while !pos < payload do
    let len = min (Bytes.length buf) (payload - !pos) in
    really_read fd buf ~pos:0 ~len "payload";
    crc := Crc32.bytes_sub ~init:!crc buf ~pos:0 ~len;
    pos := !pos + len
  done;
  really_read fd buf ~pos:0 ~len:4 "checksum";
  let stored = Bytes.get_int32_le buf 0 in
  if stored <> !crc then E.fail (E.Checksum_mismatch { stored; computed = !crc })

let map_section fd ~pos dim : Csr.buf =
  if dim = 0 then Sf_graph.Bigvec.create_buf 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int32 Bigarray.c_layout false
         [| dim |])

(* Big-endian hosts cannot reuse the raw int32 maps (the format is
   little-endian on disk), so they pay a full byte-swapping read.
   Every deployment this project targets is little-endian; the branch
   exists so the format stays well-defined everywhere. *)
let read_section_swapped fd ~pos dim : Csr.buf =
  let out = Sf_graph.Bigvec.create_buf dim in
  let raw = Bytes.create (4 * min dim chunk_ints) in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let done_ = ref 0 in
  while !done_ < dim do
    let count = min chunk_ints (dim - !done_) in
    really_read fd raw ~pos:0 ~len:(4 * count) "section";
    for i = 0 to count - 1 do
      Bigarray.Array1.unsafe_set out (!done_ + i) (Bytes.get_int32_le raw (4 * i))
    done;
    done_ := !done_ + count
  done;
  out

let map_ugraph_file ?(verify = true) ~path () =
  Sf_obs.Timer.time obs_map_timer (fun () ->
      with_fd path (fun fd ->
          let h = read_header fd ~path in
          if verify then verify_crc fd ~size:h.size;
          let section = if Sys.big_endian then read_section_swapped else map_section in
          let off_srcs = section_offset_srcs in
          let off_dsts = off_srcs + (4 * h.m) in
          let off_inc_start = off_dsts + (4 * h.m) in
          let off_inc = off_inc_start + (4 * (h.n + 1)) in
          let srcs = section fd ~pos:off_srcs h.m in
          let dsts = section fd ~pos:off_dsts h.m in
          let inc_start = section fd ~pos:off_inc_start (h.n + 1) in
          let inc = section fd ~pos:off_inc h.inc_len in
          (* cheap structural cross-checks; full [Csr.validate] is the
             caller's (or [verify]'s) opt-in — it is O(n+m) with a
             rebuild, defeating the point of a lazy map *)
          if h.n > 0 && Int32.to_int (Bigarray.Array1.get inc_start 0) <> 0 then
            E.fail (E.Malformed "offsets do not start at 0");
          if Int32.to_int (Bigarray.Array1.get inc_start h.n) <> h.inc_len then
            E.fail (E.Malformed "incidence length disagrees with offsets");
          if Sf_obs.Registry.enabled () then Sf_obs.Counter.add obs_bytes_mapped h.size;
          if Sf_obs.Trace.active () then
            Sf_obs.Trace.instant "store.map"
              ~args:[ ("path", Sf_obs.Trace.Str path); ("bytes", Sf_obs.Trace.Int h.size) ];
          Ugraph.of_csr
            (Csr.of_sections ~n:h.n ~m:h.m ~srcs ~dsts ~inc_start ~inc)))

(* ------------------------------------------------------------------ *)
(* Version-sniffing load                                               *)
(* ------------------------------------------------------------------ *)

let sniff_version path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Bytes.create 5 in
      let got = input ic buf 0 5 in
      if got >= 5 && Bytes.sub_string buf 0 4 = magic then Some (Char.code (Bytes.get buf 4))
      else None)

let load_ugraph ?(verify = true) ~path () =
  match sniff_version path with
  | Some v when v = version -> map_ugraph_file ~verify ~path ()
  | Some v -> E.fail (E.Unsupported_version v)
  | None -> Sf_graph.Gio.read_edge_list ~path
