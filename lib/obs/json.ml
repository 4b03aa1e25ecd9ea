type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* Recursive-descent parser over the raw string: RFC 8259, except that
   strings may hold raw control bytes, and an unknown escape stands
   for the escaped character itself. *)

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    String.iter (fun c -> expect c) word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          (* Export.json_string escapes control bytes as \u00XX; a
             lone surrogate has no UTF-8 image and reads as U+FFFD *)
          let hex = if !pos + 5 <= n then String.sub s (!pos + 1) 4 else "" in
          let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
          if String.length hex <> 4 || not (String.for_all is_hex hex) then
            fail "malformed \\u escape";
          let code = int_of_string ("0x" ^ hex) in
          Buffer.add_utf_8_uchar b
            (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep);
          pos := !pos + 4
        | Some c -> Buffer.add_char b c
        | None -> fail "unterminated escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after the document";
  v

let parse s = try Ok (parse_exn s) with Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let as_str = function Str s -> Some s | _ -> None
let as_num = function Num f -> Some f | _ -> None

let as_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let as_arr = function Arr xs -> Some xs | _ -> None
