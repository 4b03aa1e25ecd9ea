type step =
  | Request_edge of Oracle.vertex * Oracle.handle
  | Request_vertex of Oracle.vertex
  | Give_up

type t = {
  name : string;
  description : string;
  model : Oracle.model;
  prepare : Sf_prng.Rng.t -> Oracle.t -> unit -> step;
}

module Cursor = struct
  (* next handle index by discovery rank; a rank past the end reads 0 *)
  type cursor = { mutable next : int array }

  let create () = { next = [||] }
  let none = -1

  let useless oracle ~skip_known v h =
    Oracle.handle_requested oracle h
    || (skip_known && Oracle.far_endpoint oracle ~owner:v h <> 0)

  let next_handle cur oracle ~skip_known v =
    let len = Oracle.degree oracle v in
    let r = Oracle.discovery_rank oracle v in
    if r >= Array.length cur.next then begin
      let next = Array.make (max 64 (max (r + 1) (2 * Array.length cur.next))) 0 in
      Array.blit cur.next 0 next 0 (Array.length cur.next);
      cur.next <- next
    end;
    let i = ref cur.next.(r) in
    (* A requested handle is useless forever; a known-endpoints handle
       stays useless too (endpoints never become undiscovered), so
       advancing the cursor past both is safe. *)
    while !i < len && useless oracle ~skip_known v (Oracle.handle oracle v !i) do
      incr i
    done;
    cur.next.(r) <- !i;
    if !i < len then Oracle.handle oracle v !i else none
end
