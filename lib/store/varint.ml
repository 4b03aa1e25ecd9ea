let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative value";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

(* zigzag: interleave positives and negatives so small magnitudes stay
   small; [asr 62] propagates the sign over a 63-bit int. *)
let write_signed buf v = write buf ((v lsl 1) lxor (v asr 62))

let read s ~pos =
  let len = String.length s in
  let rec go pos shift acc =
    if pos >= len then Codec_error.fail (Codec_error.Truncated "varint");
    if shift > 62 then Codec_error.fail (Codec_error.Malformed "varint too long");
    let byte = Char.code s.[pos] in
    let low = byte land 0x7f in
    (* bits at index >= 62 would overflow a non-negative OCaml int *)
    if low lsr (62 - shift) <> 0 then
      Codec_error.fail (Codec_error.Malformed "varint overflows 63-bit int");
    let acc = acc lor (low lsl shift) in
    if byte land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let read_signed s ~pos =
  let v, next = read s ~pos in
  ((v lsr 1) lxor (-(v land 1)), next)

let write_string buf s =
  write buf (String.length s);
  Buffer.add_string buf s

let read_string s ~limit ~pos =
  let n, pos = read s ~pos in
  if n > limit - pos then Codec_error.fail (Codec_error.Truncated "string");
  (String.sub s pos n, pos + n)
