(* Reflected CRC-32 with the 0xEDB88320 polynomial, one 256-entry
   table built at module initialisation. Not a [lazy]: the first
   checksums of a run may be taken on several domains at once, and
   forcing one lazy value from two domains raises
   [CamlinternalLazy.Undefined]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let sub ?(init = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.sub: out of bounds";
  let crc = ref (Int32.lognot init) in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code s.[i]))) 0xffl) in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.lognot !crc

let string ?init s = sub ?init s ~pos:0 ~len:(String.length s)

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
