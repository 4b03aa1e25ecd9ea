(* In-memory spans for the traced replay. The benchmark brackets each
   call it makes into a layer (Wire.decode_request, Oracle.start,
   Runner.run, Ckpt.write, ...) in a span carrying the request or task
   id; nothing is written until the run ends, when the spans become a
   Perfetto document. No sink is attached to Sf_obs.Trace, so the
   library's own per-request events stay off. *)

type span = { name : string; id : int; parent : int; t0 : float; mutable t1 : float }

type t = { mutable spans : span array; mutable len : int; mutable stack : int list }

let create () = { spans = [||]; len = 0; stack = [] }

(* Counts taken at the same boundaries as the spans. *)
type counts = {
  mutable alloc_words : float;  (** allocated inside Oracle.start *)
  mutable requests : int;  (** oracle requests paid inside Runner.run *)
}

let counts () = { alloc_words = 0.; requests = 0 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let with_span t name ~id f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let i = push t { name; id; parent; t0 = Util.now (); t1 = 0. } in
  t.stack <- i :: t.stack;
  let close () =
    t.spans.(i).t1 <- Util.now ();
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans t = Array.sub t.spans 0 t.len
let duration s = s.t1 -. s.t0

(* Durations of every span called [name], in recording order. *)
let durations t name =
  spans t |> Array.to_list
  |> List.filter_map (fun s -> if s.name = name then Some (duration s) else None)
  |> Array.of_list

(* Self time of each span: its duration minus what its children cover. *)
let self_times t =
  let all = spans t in
  let self = Array.map duration all in
  Array.iter (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s) all;
  Array.mapi (fun i s -> (s, self.(i))) all

(* Summed self time per span name. *)
let self_by_name t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.))
    (self_times t);
  tbl

let perfetto t ~process =
  let all = spans t in
  let kids = Array.make (Array.length all) [] in
  for i = Array.length all - 1 downto 0 do
    let p = all.(i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  let events = ref [] and seq = ref 0 in
  let emit ts name kind args =
    incr seq;
    events := { Sf_obs.Trace.seq = !seq; ts; name; kind; args } :: !events
  in
  let rec walk i =
    let s = all.(i) in
    emit s.t0 s.name Sf_obs.Trace.Begin [ ("id", Sf_obs.Trace.Int s.id) ];
    List.iter walk kids.(i);
    emit s.t1 s.name Sf_obs.Trace.End []
  in
  Array.iteri (fun i s -> if s.parent < 0 then walk i) all;
  Sf_obs.Trace_export.perfetto_json ~process (List.rev !events)
