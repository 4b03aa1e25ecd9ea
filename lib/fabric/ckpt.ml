(* Resumable shard checkpoints — the scalefree.ckpt/1 format.

   One file per shard under DIR/shards/, rewritten atomically
   (tmp+rename, the lib/store discipline) every few trials, so a
   worker killed at any instant leaves either the previous checkpoint
   or the next one, never a torn file.  A checkpoint binds itself to
   its grid twice over: the CRC of the grid plan file and a
   fingerprint of the master rng state, so a stale checkpoint from a
   different grid or seed is refused loudly at resume instead of
   silently merging foreign outcomes.

   Counter deltas ride along so the coordinator can reconstruct the
   observability totals of exactly the trials whose outcomes were
   persisted: a worker that dies after running trials but before
   checkpointing them takes its in-memory counters down with it, which
   is precisely what keeps the merged totals consistent with the
   merged outcomes.  fabric.* metrics are excluded — they measure the
   machinery (checkpoint writes, worker deaths) and differ across
   crash histories by design. *)

module Varint = Sf_store.Varint
module Crc32 = Sf_store.Crc32
module E = Sf_store.Codec_error

let magic = "SFCK"
let version = 1

type t = {
  c_grid_crc : int32;
  c_shard : int;
  c_lo : int;
  c_hi : int;
  c_rng_token : int64;
  c_next : int;  (* first task index not yet persisted; lo <= next <= hi *)
  c_outcomes : (float * bool * bool) array;  (* next - lo entries *)
  c_counters : (string * int) list;  (* sorted by name, values > 0 *)
}

let complete c = c.c_next = c.c_hi

let flag_truncated = 0x01
let flag_gave_up = 0x02

let encode c =
  if Array.length c.c_outcomes <> c.c_next - c.c_lo then
    invalid_arg "Ckpt.encode: outcome count disagrees with next - lo";
  let buf = Buffer.create (64 + (9 * Array.length c.c_outcomes)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  let b4 = Bytes.create 4 in
  Bytes.set_int32_le b4 0 c.c_grid_crc;
  Buffer.add_bytes buf b4;
  Varint.write buf c.c_shard;
  Varint.write buf c.c_lo;
  Varint.write buf c.c_hi;
  let b8 = Bytes.create 8 in
  Bytes.set_int64_le b8 0 c.c_rng_token;
  Buffer.add_bytes buf b8;
  Varint.write buf c.c_next;
  Array.iter
    (fun (cost, truncated, gave_up) ->
      Bytes.set_int64_le b8 0 (Int64.bits_of_float cost);
      Buffer.add_bytes buf b8;
      let flags =
        (if truncated then flag_truncated else 0) lor if gave_up then flag_gave_up else 0
      in
      Buffer.add_char buf (Char.chr flags))
    c.c_outcomes;
  Varint.write buf (List.length c.c_counters);
  List.iter
    (fun (name, v) ->
      Varint.write_string buf name;
      Varint.write buf v)
    c.c_counters;
  Crc32.seal buf

let decode s =
  let len = String.length s in
  if len < String.length magic + 1 + 4 + 4 then E.fail (E.Truncated "checkpoint");
  if String.sub s 0 4 <> magic then E.fail E.Bad_magic;
  let v = Char.code s.[4] in
  if v <> version then E.fail (E.Unsupported_version v);
  let payload_end = Crc32.check_sealed s in
  let grid_crc = String.get_int32_le s 5 in
  let pos = 9 in
  let shard, pos = Varint.read s ~pos in
  let lo, pos = Varint.read s ~pos in
  let hi, pos = Varint.read s ~pos in
  if lo > hi then E.fail (E.Malformed "shard range");
  if pos + 8 > payload_end then E.fail (E.Truncated "rng token");
  let rng_token = String.get_int64_le s pos in
  let pos = pos + 8 in
  let next, pos = Varint.read s ~pos in
  if next < lo || next > hi then E.fail (E.Malformed "next outside shard range");
  let count = next - lo in
  if pos + (9 * count) > payload_end then E.fail (E.Truncated "outcomes");
  let outcomes =
    Array.init count (fun i ->
        let base = pos + (9 * i) in
        let cost = Int64.float_of_bits (String.get_int64_le s base) in
        let flags = Char.code s.[base + 8] in
        if flags land lnot (flag_truncated lor flag_gave_up) <> 0 then
          E.fail (E.Malformed (Printf.sprintf "unknown outcome flag bits %#x" flags));
        (cost, flags land flag_truncated <> 0, flags land flag_gave_up <> 0))
  in
  let pos = pos + (9 * count) in
  let n_counters, pos = Varint.read s ~pos in
  if n_counters < 0 then E.fail (E.Malformed "counter count");
  let pos = ref pos in
  let counters =
    List.init n_counters (fun _ ->
        let name, p = Varint.read_string s ~limit:payload_end ~pos:!pos in
        let v, p = Varint.read s ~pos:p in
        pos := p;
        (name, v))
  in
  if !pos <> payload_end then
    E.fail (E.Malformed (Printf.sprintf "%d trailing byte(s)" (payload_end - !pos)));
  {
    c_grid_crc = grid_crc;
    c_shard = shard;
    c_lo = lo;
    c_hi = hi;
    c_rng_token = rng_token;
    c_next = next;
    c_outcomes = outcomes;
    c_counters = counters;
  }

let write ~path c =
  let data = encode c in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     close_out oc
   with e ->
     (try close_out_noerr oc with _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~path = decode (read_file path)

let load_opt ~path = if Sys.file_exists path then Some (load ~path) else None

(* --- counter bookkeeping ------------------------------------------- *)

let fabric_prefix = "fabric."

let is_fabric name =
  String.length name >= String.length fabric_prefix
  && String.sub name 0 (String.length fabric_prefix) = fabric_prefix

let counters_snapshot () =
  Sf_obs.Registry.all ()
  |> List.filter_map (fun (name, m) ->
         match m with
         | Sf_obs.Registry.Counter c when not (is_fabric name) ->
           Some (name, Sf_obs.Counter.value c)
         | _ -> None)

(* [now] extends [base]: metrics register lazily, so names may appear
   between snapshots — a missing base value is zero. *)
let counters_delta ~base now =
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace base_tbl name v) base;
  List.filter_map
    (fun (name, v) ->
      let d = v - (try Hashtbl.find base_tbl name with Not_found -> 0) in
      if d > 0 then Some (name, d) else None)
    now

let counters_merge a b =
  let tbl = Hashtbl.create 64 in
  let add (name, v) = Hashtbl.replace tbl name (v + (try Hashtbl.find tbl name with Not_found -> 0)) in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
