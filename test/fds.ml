(* Descriptor floods for the FD_SETSIZE cases. [Unix.select] raises
   EINVAL for a set that holds any descriptor at or above FD_SETSIZE
   (1024), so code that selects must keep such descriptors out. *)

let beyond_select fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> false
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> true

(* Up to [n] descriptors from [open_one], newest first, stopping early
   when the process runs out (EMFILE, ENFILE). On any other failure
   the ones opened so far are closed. *)
let open_up_to n open_one =
  let fds = ref [] in
  match
    for _ = 1 to n do
      fds := open_one () :: !fds
    done
  with
  | () -> !fds
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> !fds
  | exception e ->
    List.iter Unix.close !fds;
    raise e

(* Whether the newest of [fds] is past select's limit; prints why the
   caller's assertions are skipped when it is not (a soft descriptor
   limit of 1024 or less). *)
let reached_limit fds =
  match fds with
  | fd :: _ when beyond_select fd -> true
  | _ ->
    Printf.printf "note: %d descriptors opened, none at or past FD_SETSIZE; assertions skipped\n"
      (List.length fds);
    false
