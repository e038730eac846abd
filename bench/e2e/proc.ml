(* Child processes: spawn with redirected output, wait with rusage, and
   make sure none outlives the harness. *)

external wait4 : int -> bool -> int * int * int = "bench_wait4"

let now () = Int64.to_float (Ace_trace.Trace.now_ns ()) /. 1e9

(* Every child still running; the exit paths kill and reap these. *)
let live : int list ref = ref []

type result = { code : int; wall_s : float; rss_kib : int }

let reap pid =
  let rec go () =
    match wait4 pid false with
    | _, code, rss -> (code, rss)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let r = go () in
  live := List.filter (( <> ) pid) !live;
  r

let spawn ?(stdout = "/dev/null") ?(stderr = "/dev/null") argv =
  let out = Unix.openfile stdout [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let err = Unix.openfile stderr [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; null ])
      (fun () -> Unix.create_process argv.(0) argv null out err)
  in
  live := pid :: !live;
  pid

(* One job, timed from spawn to exit. *)
let run ?stdout ?stderr argv =
  let t0 = now () in
  let pid = spawn ?stdout ?stderr argv in
  let code, rss_kib = reap pid in
  { code; wall_s = now () -. t0; rss_kib }

(* Wait up to 10 s for a child to exit by itself, then kill it.  Returns
   the exit code. *)
let stop pid =
  let deadline = now () +. 10.0 in
  let rec poll () =
    match wait4 pid true with
    | 0, _, _ when now () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | 0, _, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        fst (reap pid)
    | _, code, _ ->
        live := List.filter (( <> ) pid) !live;
        code
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid) with Unix.Unix_error _ -> ())
    !live

(* Peak resident set of a running process, from /proc (Linux). *)
let vm_hwm_kib pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            int_of_string (List.hd (String.split_on_char ' ' (String.trim v)))
        | _ -> find ()
      in
      find ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end
