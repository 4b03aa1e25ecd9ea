let iter_edges g f =
  for id = 0 to Ugraph.n_edges g - 1 do
    let s, d = Ugraph.endpoints g id in
    f s d
  done

let to_edge_list g =
  let buf = Buffer.create (16 + (8 * Ugraph.n_edges g)) in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Ugraph.n_vertices g) (Ugraph.n_edges g));
  iter_edges g (fun s d -> Buffer.add_string buf (Printf.sprintf "%d %d\n" s d));
  Buffer.contents buf

(* Plain decimal integers only: [int_of_string] also accepts hex/octal
   literals and '_' separators, which in an edge list can only be
   corruption. *)
let parse_int what s =
  let plain =
    s <> ""
    && String.for_all (function '0' .. '9' -> true | _ -> false)
         (match s.[0] with '-' -> String.sub s 1 (String.length s - 1) | _ -> s)
  in
  match if plain then int_of_string_opt s else None with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Gio.of_edge_list: bad %s" what)

let of_edge_list text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> failwith "Gio.of_edge_list: empty input"
  | header :: rest ->
    let n, m =
      match String.split_on_char ' ' header |> List.filter (( <> ) "") with
      | [ a; b ] -> (parse_int "header" a, parse_int "header" b)
      | _ -> failwith "Gio.of_edge_list: bad header"
    in
    if n < 0 || m < 0 || n > Csr.max_vertices || m > Csr.max_edges then
      failwith "Gio.of_edge_list: bad header";
    let found = List.length rest in
    (* check the declared count before touching any edge line, so the
       error names the real problem rather than whichever malformed
       line happens to come first *)
    if found < m then
      failwith
        (Printf.sprintf "Gio.of_edge_list: edge count mismatch (header declares %d, found %d)"
           m found)
    else if found > m then
      failwith
        (Printf.sprintf
           "Gio.of_edge_list: trailing garbage (%d line(s) after the %d declared edges)"
           (found - m) m);
    let srcs = Bigvec.create ~capacity:m () and dsts = Bigvec.create ~capacity:m () in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ a; b ] ->
          let src = parse_int "edge line" a and dst = parse_int "edge line" b in
          if src < 1 || src > n || dst < 1 || dst > n then
            failwith
              (Printf.sprintf "Gio.of_edge_list: edge %d %d outside vertex range 1..%d" src
                 dst n);
          Bigvec.push srcs src;
          Bigvec.push dsts dst
        | _ -> failwith "Gio.of_edge_list: bad edge line")
      rest;
    Ugraph.of_csr (Csr.of_bigvecs ~n srcs dsts)

let write_edge_list g ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_edge_list g))

let read_edge_list ~path =
  let text =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
    with Sys_error msg -> failwith ("Gio.read_edge_list: " ^ msg)
  in
  (* parse failures name the file: "g.edges: Gio.of_edge_list: ..." *)
  try of_edge_list text with Failure msg -> failwith (path ^ ": " ^ msg)

let to_dot ?(name = "g") ?(highlight = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [style=filled, fillcolor=lightblue];\n" v))
    highlight;
  iter_edges g (fun s d -> Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" s d));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
