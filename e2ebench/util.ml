(* Clock, statistics, files and child processes for the benchmark.

   Every child the benchmark starts is registered in [live] until it
   has been waited for; [reap_all] (installed with at_exit) kills and
   waits for whatever is left, so no run leaves a process behind. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* One run's settings, shared by every workload. *)
type env = {
  bins : string;  (** directory holding sfgen.exe, sfserve.exe, sffabric.exe *)
  work : string;  (** scratch directory for graphs, sockets, logs and run dirs *)
  seed : int;
  seconds : float;  (** measured length of the run *)
  smoke : bool;  (** 1/50 length, every check still on *)
  traced : bool;  (** replay in-process with spans; report layer metrics *)
}

let bin env name = Filename.concat env.bins (name ^ ".exe")
let in_work env name = Filename.concat env.work name

(* ---- statistics ---------------------------------------------------- *)

let quantile xs q = Sf_stats.Quantile.quantile xs ~q
let median xs = Sf_stats.Quantile.median xs

let mean xs =
  if xs = [||] then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0. xs

(* Words allocated by this domain so far, minor and major heaps. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- files --------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* The suffix of [s] from the last occurrence of [key]. *)
let from_last s key =
  let k = String.length key in
  let rec go i =
    if i < 0 then None
    else if String.sub s i k = key then Some (String.sub s i (String.length s - i))
    else go (i - 1)
  in
  go (String.length s - k)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_json path =
  match Sf_perf.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* A number at a path of object keys, e.g. [["metrics"; "serve.batch_size"; "sum"]]. *)
let json_num json keys =
  let rec go j = function
    | [] -> Sf_perf.Json.as_num j
    | k :: rest -> Option.bind (Sf_perf.Json.member k j) (fun j -> go j rest)
  in
  go json keys

(* ---- child processes ----------------------------------------------- *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

(* Start [argv] with stdout appended to [log] and stderr to [err]
   (default: the log too). *)
let spawn ~log ?err argv =
  let out = open_log log in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process argv.(0) argv Unix.stdin out (Option.value err ~default:out))
  in
  Hashtbl.replace live pid ();
  pid

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let reaped pid status =
  Hashtbl.remove live pid;
  status

(* Wait for [pid]; after [timeout] seconds it is killed and counted as
   a failure by the caller. *)
let wait ?(timeout = 60.) pid =
  let deadline = now () +. timeout in
  let rec go () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Thread.delay 0.002;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reaped pid (snd (waitpid_retry [] pid))
    | _, status -> reaped pid status
  in
  go ()

let alive pid =
  match waitpid_retry [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _, status ->
    ignore (reaped pid status);
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Run to completion; raise unless it exits 0. *)
let run ~log ?(timeout = 120.) argv =
  let status = wait ~timeout (spawn ~log argv) in
  if not (status_ok status) then
    failwith
      (Printf.sprintf "%s: %s (log in %s)" (Filename.basename argv.(0)) (describe status) log)

let reap_all () =
  Hashtbl.iter (fun pid _ -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) live;
  List.iter (fun pid -> ignore (wait ~timeout:5. pid)) (List.of_seq (Hashtbl.to_seq_keys live))

(* ---- /proc --------------------------------------------------------- *)

let proc_file pid name = Printf.sprintf "/proc/%d/%s" pid name
let read_opt path = try Some (read_file path) with Sys_error _ -> None

(* utime + stime of a live process, seconds (USER_HZ is 100 on Linux). *)
let cpu_s pid =
  match read_opt (proc_file pid "stat") with
  | None -> 0.
  | Some s ->
    (* fields after the parenthesised command name; utime and stime are
       the 14th and 15th fields of the whole line *)
    let i = String.rindex s ')' in
    let f = Array.of_list (String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))) in
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* VmHWM (peak resident set) of a live process, kB; 0 when gone. *)
let hwm_kb pid =
  match read_opt (proc_file pid "status") with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> int_of_string kb
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

let children pid =
  match Sys.readdir (proc_file pid "task") with
  | exception Sys_error _ -> []
  | tasks ->
    Array.to_list tasks
    |> List.concat_map (fun tid ->
           match read_opt (Printf.sprintf "/proc/%d/task/%s/children" pid tid) with
           | None -> []
           | Some s ->
             String.split_on_char ' ' (String.trim s)
             |> List.filter_map int_of_string_opt)
