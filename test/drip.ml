(* Feed a byte stream through Sf_obs.Frame's receive buffer one byte
   per write over a socketpair, so every read returns a single byte.
   Returns what [next] yielded, each paired with the number of bytes
   written when it appeared, stopping at the first [`Bad]. *)

module Frame = Sf_obs.Frame

let frames ~min_payload ~max_payload s =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let r = Frame.reader ~min_payload ~max_payload in
      let out = ref [] in
      let rec drain at =
        match Frame.next r with
        | `Need_more -> true
        | `Frame p ->
          out := (at, `Frame p) :: !out;
          drain at
        | `Bad m ->
          out := (at, `Bad m) :: !out;
          false
      in
      let rec go i =
        if i < String.length s then begin
          Frame.write_all a (String.make 1 s.[i]);
          if Frame.read r b <> 1 then failwith "Drip.frames: expected a 1-byte read";
          if drain (i + 1) then go (i + 1)
        end
      in
      go 0;
      List.rev !out)
