(* Unix-domain listener lifecycle, shared by every long-lived socket
   in the repo: the telemetry socket (Expose), the lib/serve request
   socket, and the lib/fabric coordinator socket.  Claiming a path
   safely is the same problem for all of them: reclaim the path only
   when it is a leftover socket of a dead run; refuse to clobber
   anything else (--telemetry ./results.json would otherwise delete a
   data file) and refuse to steal the socket of a process that is
   still serving it. *)

let claim_unix_path ~who path =
  if String.length path = 0 then invalid_arg (who ^ ": empty socket path");
  if String.length path >= 104 then
    (* sockaddr_un.sun_path is 108 bytes on Linux; stay clear of it so
       the error is ours, not a truncated-bind surprise *)
    invalid_arg
      (Printf.sprintf "%s: socket path too long (%d chars, limit 103): %s" who
         (String.length path) path);
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if live then
      invalid_arg (Printf.sprintf "%s: %s is in use by a live process" who path);
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> invalid_arg (Printf.sprintf "%s: %s exists and is not a socket" who path)

let stream domain setup =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try setup fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bind_unix ?(backlog = 8) ~who path =
  (* Never let a departing client kill the process behind the socket:
     writing to a half-closed connection must raise EPIPE (every
     listener treats it as client-gone), not deliver a fatal
     SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  claim_unix_path ~who path;
  stream Unix.PF_UNIX (fun fd ->
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd backlog)

let connect_unix path = stream Unix.PF_UNIX (fun fd -> Unix.connect fd (Unix.ADDR_UNIX path))
