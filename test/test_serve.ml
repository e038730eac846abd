(* test_serve — the fault-injection harness for the aced daemon.

   Drives the real aced binary (path in the ACED environment variable,
   falling back to the in-tree build path) as a subprocess, over both
   --once pipes and a Unix-domain socket, and asserts the robustness
   contracts end to end:

   - protocol totality: garbage in, exactly one well-formed JSON error
     reply per line out;
   - warm-equals-cold: a cache hit's result field is byte-identical to
     the cold computation (and to an in-process -j1 extraction);
   - deadline expiry cancels a large extraction and the daemon stays
     healthy;
   - injected torn writes and bit flips are quarantined and healed;
   - a raising shard domain becomes an internal-error reply, not a
     wedged or dead daemon;
   - SIGKILL + restart: stale temp files are swept and the persisted
     cache serves byte-identical warm results;
   - warm hits keep completing while a cold extraction runs on another
     connection, inline on the connection threads' domain and on the
     compute domain alike (no head-of-line blocking);
   - a miss with company runs on the compute domain: a request whose
     deadline expires while it is queued there gets a prompt
     deadline-exceeded and never stores, a raising job becomes an
     internal-error and the domain serves the next miss, identical
     misses queued behind one another extract once, and shutdown
     during a job exits 0; a one-connection session never starts the
     domain, and a lone miss runs inline even once it exists;
   - sustained overload yields structured overloaded rejections;
   - oversized request lines are drained and rejected without ballooning
     memory, and the connection stays usable;
   - every compute op (extract, lint, flow, flat and hierarchical lvs)
     answers a repeated request from the raw-byte memo with the cold
     reply's bytes, a commented variant of the same layout from the
     canonical entry, and a stale, corrupt or evicted memo target by
     recomputing.

   The chunked request reader is driven in-process through
   [Server.serve_channel] on scripted inputs.

   The crash-safe cache and the fault-spec parser also get direct
   in-process unit coverage (eviction order needs planted mtimes,
   concurrent stores of one key need threads in one process). *)

module Json = Ace_trace.Json
module Serve = Ace_serve
module Chips = Ace_workloads.Chips

let aced_exe =
  match Sys.getenv_opt "ACED" with
  | Some p -> p
  | None ->
      List.find Sys.file_exists
        [ "../bin/aced.exe"; "_build/default/bin/aced.exe" ]

(* The one-shot extractor: daemon replies must carry its -j1 wirelist. *)
let ace_exe =
  match Sys.getenv_opt "ACE" with
  | Some p -> p
  | None ->
      List.find Sys.file_exists
        [ "../bin/ace.exe"; "_build/default/bin/ace.exe" ]

let failures = ref 0

let check name ok =
  if ok then Printf.printf "PASS %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let check_s name got expected =
  if got = expected then Printf.printf "PASS %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n  expected: %s\n  got:      %s\n%!" name
      (String.sub expected 0 (min 200 (String.length expected)))
      (String.sub got 0 (min 200 (String.length got)))
  end

(* ------------------------------------------------------------------ *)
(* Scratch space                                                      *)

let scratch_base =
  let d = Printf.sprintf "/tmp/aced-test-%d" (Unix.getpid ()) in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let scratch_n = ref 0

let scratch () =
  incr scratch_n;
  let d = Printf.sprintf "%s/t%d" scratch_base !scratch_n in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Child processes                                                    *)

(* Every child the harness has started and not yet reaped.  Children
   are started and reaped on the main thread only. *)
let children = ref []

let spawn prog args ~stdin ~stdout =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout
      Unix.stderr
  in
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

(* However the harness ends (a failed check, an uncaught exception, a
   normal end or SIGINT/SIGTERM), no daemon it started outlives it and
   its scratch directory goes.  A write to a connection the daemon
   closed must fail with EPIPE, not kill the harness, so SIGPIPE is
   caught and dropped: a caught signal, unlike an ignored one, is reset
   to its default in the children the harness execs, so the daemons
   under test run as a user would run them. *)
let () =
  Sys.set_signal Sys.sigpipe (Sys.Signal_handle ignore);
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children;
      children := [];
      rm_rf scratch_base)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                       *)

let jparse line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> failwith (Printf.sprintf "unparseable reply %S: %s" line m)

let jget j k =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "reply missing field %S" k)

let jstr = function Json.Str s -> s | _ -> failwith "expected string"
let jbool = function Json.Bool b -> b | _ -> failwith "expected bool"
let jnum = function Json.Num f -> int_of_float f | _ -> failwith "expected num"
let err_code j = jstr (jget (jget j "error") "code")

(* The raw result fragment of an ok extract reply, for byte-identity
   checks that bypass any JSON re-rendering. *)
let result_fragment reply =
  let marker = "\"result\":" in
  let stop_marker = ",\"diags\":" in
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length reply then raise Not_found
      else if String.sub reply i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let i = find marker 0 + String.length marker in
  let j = find stop_marker i in
  String.sub reply i (j - i)

(* ------------------------------------------------------------------ *)
(* Subprocess plumbing                                                *)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let start_daemon args =
  let null = devnull () in
  let pid = spawn aced_exe args ~stdin:null ~stdout:Unix.stdout in
  Unix.close null;
  pid

(* cloexec: a daemon spawned later must not hold this connection open *)
let connect path =
  let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect s (Unix.ADDR_UNIX path);
    (Unix.in_channel_of_descr s, Unix.out_channel_of_descr s, s)
  with e ->
    (try Unix.close s with Unix.Unix_error _ -> ());
    raise e

let close_conn (_, _, fd) = try Unix.close fd with Unix.Unix_error _ -> ()

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      failwith ("daemon did not come up on " ^ path)
    else
      match connect path with
      | conn ->
          close_conn conn
      | exception _ ->
          Unix.sleepf 0.02;
          go ()
  in
  go ()

let start_socket_daemon args sock =
  let pid = start_daemon (("--socket" :: sock :: args)) in
  wait_for_socket sock;
  pid

let rpc (ic, oc, _) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* The child's exit status, or [None] when it had to be killed after
   [timeout] seconds. *)
let exit_status ?(timeout = 20.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          forget pid;
          None
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _, status ->
        forget pid;
        Some status
  in
  go ()

let reap ?timeout pid = ignore (exit_status ?timeout pid)

let shutdown_daemon pid sock =
  (match connect sock with
  | conn ->
      (try ignore (rpc conn {|{"op":"shutdown"}|}) with _ -> ());
      close_conn conn
  | exception _ -> ());
  reap pid

(* Run `aced --once` (plus extra args) over a list of request lines and
   return the reply lines.  Input is written first, then the pipe is
   closed: replies are only produced per complete line, so no deadlock
   as long as one batch fits the pipe buffers (ours do). *)
let run_once ?(args = []) lines =
  (* cloexec: the child must NOT inherit our pipe ends (beyond the dup2'd
     stdio), or it never sees EOF on its stdin *)
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let pid = spawn aced_exe ("--once" :: args) ~stdin:r_in ~stdout:w_out in
  Unix.close r_in;
  Unix.close w_out;
  let oc = Unix.out_channel_of_descr w_in in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let ic = Unix.in_channel_of_descr r_out in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let replies = read [] in
  close_in_noerr ic;
  reap pid;
  replies

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)

let data_file name =
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  let ic = open_in_bin (Filename.concat dir name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let inverter_cif = data_file "inverter.cif"

let chain_cif n =
  Ace_cif.Writer.to_string (Chips.inverter_chain ~n ())

let ram_cif side =
  Ace_cif.Writer.to_string (Chips.ram_array ~rows:side ~cols:side ())

let extract_req ?(id = 1) ?jobs ?tile ?deadline_ms ?(cache = true) cif =
  let fields =
    [
      ("id", Serve.Proto.int id);
      ("op", Serve.Proto.str "extract");
      ("cif", Serve.Proto.str cif);
    ]
    @ (match jobs with Some j -> [ ("jobs", Serve.Proto.int j) ] | None -> [])
    @ (match tile with Some t -> [ ("tile", Serve.Proto.str t) ] | None -> [])
    @ (match deadline_ms with
      | Some ms -> [ ("deadline_ms", Serve.Proto.int ms) ]
      | None -> [])
    @ if cache then [] else [ ("cache", "false") ]
  in
  Serve.Proto.obj fields

(* The -j1 one-shot reference the daemon's replies must match. *)
let reference_wirelist cif =
  let ast, _ = Ace_cif.Parser.parse_string_lenient cif in
  let design, _ = Ace_cif.Design.of_ast_lenient ast in
  Ace_netlist.Wirelist.to_string
    (Ace_core.Parallel.extract ~jobs:1 ~name:"chip" design)

(* riscb at full size: a cold extract of about half a second. *)
let riscb_cif =
  lazy
    (let riscb =
       List.find (fun r -> r.Chips.chip_name = "riscb") Chips.paper_suite
     in
     Ace_cif.Writer.to_string
       (Ace_cif.Design.ast (riscb.Chips.build ~scale:1.0)))

(* ------------------------------------------------------------------ *)
(* The compute domain, as [stats] reports it                          *)

let stats conn = jparse (rpc conn {|{"id":0,"op":"stats"}|})
let compute_stats conn = jget (stats conn) "compute"
let compute_count conn k = jnum (jget (compute_stats conn) k)
let domain_started conn = jbool (jget (compute_stats conn) "domain")
let cache_stores conn = jnum (jget (jget (stats conn) "cache") "stores")

(* Misses run so far, inline or on the compute domain, from one [stats]
   reply's "compute" object. *)
let misses c = jnum (jget c "inline") + jnum (jget c "offloaded")

(* Poll [stats] until [cond conn] holds; false after [timeout] seconds. *)
let await ?(timeout = 20.0) conn cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond conn then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* Send [req] on a fresh connection from a thread; [join] returns the
   reply, or "" when the connection ended without one. *)
let send_async sock req =
  let reply = ref "" in
  let th =
    Thread.create
      (fun () ->
        let c = connect sock in
        (try reply := rpc c req with End_of_file | Sys_error _ -> ());
        close_conn c)
      ()
  in
  fun () ->
    Thread.join th;
    !reply

(* Send a cold riscb extract (one shard) on a fresh connection and wait
   until its miss runs, inline or as a job.  A miss sent while it is in
   flight has company: it runs on the compute domain, queued behind it.
   Returns the join of {!send_async}. *)
let miss_ahead ?(cache = false) sock conn =
  let base = misses (compute_stats conn) in
  let join =
    send_async sock (extract_req ~jobs:1 ~cache (Lazy.force riscb_cif))
  in
  check "a miss ahead is running"
    (await conn (fun c ->
         let s = compute_stats c in
         misses s = base + 1 && jnum (jget s "queued") = 0));
  join

(* ------------------------------------------------------------------ *)
(* 1. --once basics: ping, typed errors, totality                     *)

let test_once_basics () =
  let replies =
    run_once
      [
        {|{"id":1,"op":"ping"}|};
        {|{"id":2,"op":"nonsense"}|};
        {|not json at all|};
        {|{"id":3,"op":"extract"}|};
        {|{"id":4,"op":"extract","cif":42}|};
        "";
      ]
  in
  check "once: one reply per line" (List.length replies = 6);
  let r = List.map jparse replies in
  check "once: ping pongs"
    (jbool (jget (List.nth r 0) "pong") && jbool (jget (List.nth r 0) "ok"));
  check "once: unknown op -> bad-request"
    (err_code (List.nth r 1) = "bad-request");
  check "once: garbage -> bad-request"
    (err_code (List.nth r 2) = "bad-request");
  check "once: missing cif -> bad-request"
    (err_code (List.nth r 3) = "bad-request");
  check "once: non-string cif -> bad-request"
    (err_code (List.nth r 4) = "bad-request");
  check "once: empty line -> bad-request"
    (err_code (List.nth r 5) = "bad-request")

(* ------------------------------------------------------------------ *)
(* 2. --once protocol garbage batch (subprocess fuzz smoke)           *)

let test_once_garbage () =
  let rng = Random.State.make [| 0xD0E5 |] in
  let valid = extract_req inverter_cif in
  let garbage () =
    match Random.State.int rng 3 with
    | 0 ->
        (* truncated valid request: never complete JSON *)
        String.sub valid 0 (1 + Random.State.int rng (String.length valid - 2))
    | 1 ->
        String.init
          (1 + Random.State.int rng 60)
          (fun _ ->
            (* printable noise, newline-free *)
            Char.chr (32 + Random.State.int rng 95))
    | _ ->
        String.concat ""
          [ "{\"op\":"; String.make (Random.State.int rng 5) '['; "}" ]
  in
  let lines = List.init 120 (fun _ -> garbage ()) in
  let replies = run_once lines in
  check "garbage: one reply per line" (List.length replies = List.length lines);
  let all_wellformed =
    List.for_all
      (fun l ->
        match Json.parse l with
        | Ok j -> not (jbool (jget j "ok"))
        | Error _ -> false)
      replies
  in
  check "garbage: every reply is well-formed JSON with ok:false"
    all_wellformed

(* ------------------------------------------------------------------ *)
(* 3. Socket extract: cold, warm, byte-identity vs one-shot           *)

let test_socket_extract () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn = connect sock in
  let cold = rpc conn (extract_req ~id:1 inverter_cif) in
  let warm = rpc conn (extract_req ~id:2 inverter_cif) in
  let jc = jparse cold and jw = jparse warm in
  check "extract: cold reply ok, not cached"
    (jbool (jget jc "ok") && not (jbool (jget jc "cached")));
  check "extract: warm reply ok, cached"
    (jbool (jget jw "ok") && jbool (jget jw "cached"));
  check_s "extract: warm result byte-identical to cold"
    (result_fragment warm) (result_fragment cold);
  check_s "extract: daemon wirelist = -j1 one-shot wirelist"
    (jstr (jget (jget jc "result") "wirelist"))
    (reference_wirelist inverter_cif);
  (* a tiled request is a cache miss (the grid is in the key) but its
     wirelist is byte-identical: tiling is invisible in the output *)
  let tiled = jparse (rpc conn (extract_req ~id:7 ~tile:"2x2" inverter_cif)) in
  check "extract: tiled reply ok, not cached"
    (jbool (jget tiled "ok") && not (jbool (jget tiled "cached")));
  check_s "extract: tiled wirelist = -j1 one-shot wirelist"
    (jstr (jget (jget tiled "result") "wirelist"))
    (reference_wirelist inverter_cif);
  let bad = jparse (rpc conn (extract_req ~id:8 ~tile:"0x2" inverter_cif)) in
  check "extract: malformed tile -> bad-request"
    (err_code bad = "bad-request");
  (* lint and flow ride the same cache *)
  let lint =
    jparse
      (rpc conn
         (Serve.Proto.obj
            [
              ("id", "3");
              ("op", Serve.Proto.str "lint");
              ("cif", Serve.Proto.str inverter_cif);
            ]))
  in
  check "lint: ok reply with findings array"
    (jbool (jget lint "ok")
    && match jget lint "findings" with Json.Arr _ -> true | _ -> false);
  let chain = chain_cif 4 in
  let flow =
    jparse
      (rpc conn
         (Serve.Proto.obj
            [
              ("id", "4");
              ("op", Serve.Proto.str "flow");
              ("cif", Serve.Proto.str chain);
            ]))
  in
  check "flow: ok reply with convergence flag"
    (jbool (jget flow "ok") && jbool (jget flow "converged"));
  let stats = jparse (rpc conn {|{"id":5,"op":"stats"}|}) in
  let cache_stats = jget stats "cache" in
  check "stats: cache hits and stores counted"
    (jnum (jget cache_stats "hits") >= 1 && jnum (jget cache_stats "stores") >= 1);
  (* one connection never has two requests in flight: its misses ran
     inline and the compute domain never started *)
  let compute = jget stats "compute" in
  check "stats: a one-connection session never starts the compute domain"
    ((not (jbool (jget compute "domain")))
    && jnum (jget compute "offloaded") = 0
    && jnum (jget compute "queued") = 0
    && jnum (jget compute "inline") >= 3);
  close_conn conn;
  shutdown_daemon pid sock;
  check "shutdown: socket file removed" (not (Sys.file_exists sock))

(* ------------------------------------------------------------------ *)
(* 3b. Socket lvs: cold, warm byte-identity, one-shot agreement       *)

let lvs_req ?(id = 1) cif reference =
  Serve.Proto.obj
    [
      ("id", Serve.Proto.int id);
      ("op", Serve.Proto.str "lvs");
      ("cif", Serve.Proto.str cif);
      ("ref", Serve.Proto.str reference);
      ("jobs", Serve.Proto.int 1);
    ]

(* A raw sub-fragment of a reply between two markers, for byte-identity
   checks that bypass JSON re-rendering. *)
let raw_fragment reply start_marker stop_marker =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length reply then raise Not_found
      else if String.sub reply i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let i = find start_marker 0 + String.length start_marker in
  let j = find stop_marker i in
  String.sub reply i (j - i)

let test_socket_lvs () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn = connect sock in
  let reference = data_file "inverter.swapped.sp" in
  let cold = rpc conn (lvs_req ~id:1 inverter_cif reference) in
  let warm = rpc conn (lvs_req ~id:2 inverter_cif reference) in
  let jc = jparse cold and jw = jparse warm in
  check "lvs: cold reply ok, not cached"
    (jbool (jget jc "ok") && not (jbool (jget jc "cached")));
  check "lvs: warm reply ok, cached"
    (jbool (jget jw "ok") && jbool (jget jw "cached"));
  check_s "lvs: warm result byte-identical to cold" (result_fragment warm)
    (result_fragment cold);
  let res = jget jc "result" in
  check "lvs: seeded fixture verdict is mismatch"
    (jstr (jget res "verdict") = "mismatch");
  (* the findings must be byte-identical to what the one-shot comparator
     renders for the same pair (acelvs --diag-format=json) *)
  let layout =
    let ast, _ = Ace_cif.Parser.parse_string_lenient inverter_cif in
    let design, _ = Ace_cif.Design.of_ast_lenient ast in
    Ace_core.Parallel.extract ~jobs:1 ~name:"chip" design
  in
  let ref_c, _ = Ace_lvs.Reference.parse reference in
  let r = Ace_lvs.Match.run ~layout ~reference:ref_c () in
  let expected =
    "["
    ^ String.concat ","
        (List.map
           (fun f -> Ace_diag.Diag.to_json (Ace_lvs.Report.to_diag f))
           r.Ace_lvs.Match.findings)
    ^ "]"
  in
  check_s "lvs: findings byte-identical to the in-process comparator"
    (raw_fragment cold "\"findings\":" ",\"fingerprints\":")
    expected;
  check "lvs: fingerprints present"
    (raw_fragment cold "\"fingerprints\":" ",\"devices\":" <> "[]");
  (* a clean pair reports clean and rides the same cache *)
  let clean =
    jparse (rpc conn (lvs_req ~id:3 inverter_cif (data_file "inverter.sp")))
  in
  check "lvs: clean pair verdict"
    (jbool (jget clean "ok")
    && jstr (jget (jget clean "result") "verdict") = "clean");
  (* a reference that fails to parse is a bad request, not a crash *)
  let bad = jparse (rpc conn (lvs_req ~id:4 inverter_cif "(DefPart oops")) in
  check "lvs: unreadable reference -> bad-request"
    (err_code bad = "bad-request");
  close_conn conn;
  shutdown_daemon pid sock

(* A reference deck of 10^9 empty-subckt activations stops at the
   reader's instance cap, so the lvs request gets its reply and the
   extract queued behind it gets one too. *)
let test_once_instance_bomb () =
  let replies =
    run_once
      [
        lvs_req ~id:1 inverter_cif (data_file "regress/ref_instance_bomb.sp");
        extract_req ~id:2 (data_file "chain4.cif");
      ]
  in
  check "instance bomb: both requests answered" (List.length replies = 2);
  match List.map jparse replies with
  | [ lvs; extract ] ->
      let codes =
        match jget (jget lvs "result") "ref_diags" with
        | Json.Arr l -> List.map (fun d -> jstr (jget d "code")) l
        | _ -> []
      in
      check "instance bomb: one lvs-ref-too-large and nothing after it"
        (jbool (jget lvs "ok") && codes = [ "lvs-ref-too-large" ]);
      check "instance bomb: the extract behind it is answered"
        (jbool (jget extract "ok"))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* 3c. Socket lvs: hierarchical compare, Verilog references and       *)
(* finding caps ride the same cache with byte-identical warm replies  *)

let lvs_req_ext ?(id = 1) ?hier ?ref_format ?max_findings cif reference =
  Serve.Proto.obj
    ([
       ("id", Serve.Proto.int id);
       ("op", Serve.Proto.str "lvs");
       ("cif", Serve.Proto.str cif);
       ("ref", Serve.Proto.str reference);
       ("jobs", Serve.Proto.int 1);
     ]
    @ (match hier with
      | Some b -> [ ("hier", if b then "true" else "false") ]
      | None -> [])
    @ (match ref_format with
      | Some f -> [ ("ref_format", Serve.Proto.str f) ]
      | None -> [])
    @
    match max_findings with
    | Some n -> [ ("max_findings", Serve.Proto.int n) ]
    | None -> [])

let test_socket_lvs_hier () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn = connect sock in
  let mesh_cif = data_file "mesh4x4.cif" in
  let mesh_ref = data_file "mesh4x4.sp" in
  let cold = rpc conn (lvs_req_ext ~id:1 ~hier:true mesh_cif mesh_ref) in
  let warm = rpc conn (lvs_req_ext ~id:2 ~hier:true mesh_cif mesh_ref) in
  let jc = jparse cold and jw = jparse warm in
  check "hier lvs: cold ok, not cached"
    (jbool (jget jc "ok") && not (jbool (jget jc "cached")));
  check "hier lvs: warm ok, cached"
    (jbool (jget jw "ok") && jbool (jget jw "cached"));
  check_s "hier lvs: warm result byte-identical to cold"
    (result_fragment warm) (result_fragment cold);
  let res = jget jc "result" in
  check "hier lvs: verdict clean" (jstr (jget res "verdict") = "clean");
  check "hier lvs: payload carries the hier flag" (jbool (jget res "hier"));
  check "hier lvs: one distinct cell compared"
    (jnum (jget res "cell_matches") = 1);
  check "hier lvs: every other instance a memo hit"
    (jnum (jget res "cell_hits") = 15);
  check "hier lvs: no flat fallback" (not (jbool (jget res "fallback")));
  (* the flat request keys a distinct cache entry, same verdict *)
  let flat = jparse (rpc conn (lvs_req_ext ~id:3 mesh_cif mesh_ref)) in
  check "hier lvs: flat run misses the hier cache entry"
    (jbool (jget flat "ok") && not (jbool (jget flat "cached")));
  check "hier lvs: flat verdict agrees"
    (jstr (jget (jget flat "result") "verdict") = "clean");
  (* Verilog reference: warm replies byte-identical to cold *)
  let nand_cif = data_file "nand2.cif" and nand_v = data_file "nand2.v" in
  let vcold =
    rpc conn (lvs_req_ext ~id:4 ~ref_format:"verilog" nand_cif nand_v)
  in
  let vwarm =
    rpc conn (lvs_req_ext ~id:5 ~ref_format:"verilog" nand_cif nand_v)
  in
  let jvc = jparse vcold and jvw = jparse vwarm in
  check "verilog lvs: cold ok, not cached"
    (jbool (jget jvc "ok") && not (jbool (jget jvc "cached")));
  check "verilog lvs: warm ok, cached"
    (jbool (jget jvw "ok") && jbool (jget jvw "cached"));
  check_s "verilog lvs: warm result byte-identical to cold"
    (result_fragment vwarm) (result_fragment vcold);
  check "verilog lvs: verdict clean"
    (jstr (jget (jget jvc "result") "verdict") = "clean");
  (* max_findings caps per-code finding floods (cap + overflow note) *)
  let count_findings j =
    match jget (jget j "result") "findings" with
    | Json.Arr l -> List.length l
    | _ -> -1
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let flood_ref =
    let b = Buffer.create 1024 in
    for k = 1 to 30 do
      Buffer.add_string b
        (Printf.sprintf "M%d D%d G%d S%d 0 ENH L=5U W=5U\n" k k k k)
    done;
    Buffer.add_string b ".END\n";
    Buffer.contents b
  in
  let fullr = rpc conn (lvs_req_ext ~id:6 inverter_cif flood_ref) in
  let cappedr =
    jparse (rpc conn (lvs_req_ext ~id:7 ~max_findings:2 inverter_cif flood_ref))
  in
  let full = jparse fullr in
  check "max_findings: default cap already truncates the flood"
    (contains fullr "more lvs-missing-device findings");
  check "max_findings: tighter cap shrinks the findings array"
    (count_findings cappedr < count_findings full);
  check "max_findings: verdict unchanged by the cap"
    (jstr (jget (jget cappedr "result") "verdict") = "mismatch");
  (* invalid knob values are bad requests, not crashes *)
  let badf =
    jparse (rpc conn (lvs_req_ext ~id:8 ~ref_format:"edif" nand_cif nand_v))
  in
  check "lvs: unknown ref_format -> bad-request" (err_code badf = "bad-request");
  let badn =
    jparse (rpc conn (lvs_req_ext ~id:9 ~max_findings:(-2) nand_cif flood_ref))
  in
  check "lvs: negative max_findings -> bad-request"
    (err_code badn = "bad-request");
  close_conn conn;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 4. Deadline expiry cancels a large extraction; daemon stays up     *)

let test_deadline () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let pid = start_socket_daemon [ "--no-cache" ] sock in
  let conn = connect sock in
  let tripped =
    List.exists
      (fun side ->
        let t0 = Unix.gettimeofday () in
        let reply =
          jparse (rpc conn (extract_req ~id:side ~deadline_ms:5 (ram_cif side)))
        in
        let elapsed_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
        if jbool (jget reply "ok") then false
        else begin
          check "deadline: error code is deadline-exceeded"
            (err_code reply = "deadline-exceeded");
          (* cancellation latency is polling-stride bound, far under the
             cold extraction time; allow generous scheduler slack *)
          check "deadline: reply came back promptly" (elapsed_ms < 2000);
          true
        end)
      [ 30; 60; 120 ]
  in
  check "deadline: a 5ms deadline trips on a big chip" tripped;
  (* the tiled path checks the same token at every tile's start and in
     every tile's scan: a short deadline on a tiled request trips just as
     promptly *)
  let tiled_tripped =
    List.exists
      (fun side ->
        let t0 = Unix.gettimeofday () in
        let reply =
          jparse
            (rpc conn
               (extract_req ~id:(100 + side) ~tile:"3x3" ~deadline_ms:5
                  (ram_cif side)))
        in
        let elapsed_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
        if jbool (jget reply "ok") then false
        else begin
          check "deadline: tiled error code is deadline-exceeded"
            (err_code reply = "deadline-exceeded");
          check "deadline: tiled reply came back promptly" (elapsed_ms < 2000);
          true
        end)
      [ 30; 60; 120 ]
  in
  check "deadline: a 5ms deadline trips on a tiled extract" tiled_tripped;
  let pong = jparse (rpc conn {|{"id":9,"op":"ping"}|}) in
  check "deadline: daemon healthy afterwards" (jbool (jget pong "pong"));
  let ok = jparse (rpc conn (extract_req ~id:10 inverter_cif)) in
  check "deadline: subsequent undeadlined request succeeds"
    (jbool (jget ok "ok"));
  let stats = jparse (rpc conn {|{"id":11,"op":"stats"}|}) in
  check "deadline: deadline_kills counter ticked"
    (jnum (jget (jget stats "counters") "deadline_kills") >= 1);
  close_conn conn;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 5+6. Cache corruption faults: torn writes and bit flips heal       *)

let test_corruption fault =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid =
    start_socket_daemon [ "--cache-dir"; cache_dir; "--fault"; fault ] sock
  in
  let conn = connect sock in
  let r1 = rpc conn (extract_req ~id:1 inverter_cif) in
  let r2 = rpc conn (extract_req ~id:2 inverter_cif) in
  let j1 = jparse r1 and j2 = jparse r2 in
  check (fault ^ ": first reply ok (computed)") (jbool (jget j1 "ok"));
  check
    (fault ^ ": second reply recomputed, not served corrupt")
    (jbool (jget j2 "ok") && not (jbool (jget j2 "cached")));
  check_s (fault ^ ": recomputed result byte-identical")
    (result_fragment r2) (result_fragment r1);
  let stats = jparse (rpc conn {|{"id":3,"op":"stats"}|}) in
  check
    (fault ^ ": corrupt entry quarantined")
    (jnum (jget (jget stats "cache") "quarantined") >= 1);
  let quarantined =
    Sys.readdir cache_dir |> Array.to_list
    |> List.exists (fun n -> Filename.check_suffix n ".quarantined")
  in
  check (fault ^ ": quarantine file kept for post-mortem") quarantined;
  close_conn conn;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 7. A raising shard domain -> internal-error reply, healthy daemon  *)

let test_shard_raise () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_socket_daemon [ "--no-cache"; "-j"; "2"; "--fault"; "shard-raise" ]
      sock
  in
  let conn = connect sock in
  let reply = jparse (rpc conn (extract_req ~id:1 inverter_cif)) in
  check "shard-raise: internal-error reply"
    ((not (jbool (jget reply "ok"))) && err_code reply = "internal-error");
  check "shard-raise: carries an exception fingerprint"
    (String.length (jstr (jget (jget reply "error") "fingerprint")) = 16);
  let pong = jparse (rpc conn {|{"id":2,"op":"ping"}|}) in
  check "shard-raise: daemon survives its shard" (jbool (jget pong "pong"));
  (* a 2x2 grid over 2 workers: the injected fault fires in whichever
     tile with index > 0 runs first — owned or stolen — and must
     propagate as the same typed error with every domain joined *)
  let tiled =
    jparse (rpc conn (extract_req ~id:3 ~jobs:2 ~tile:"2x2" inverter_cif))
  in
  check "shard-raise: tiled request -> internal-error"
    ((not (jbool (jget tiled "ok"))) && err_code tiled = "internal-error");
  let pong2 = jparse (rpc conn {|{"id":4,"op":"ping"}|}) in
  check "shard-raise: daemon survives a raising tile" (jbool (jget pong2 "pong"));
  (* a -j1 request takes the flat path: no spawned shard, no injection *)
  let flat = jparse (rpc conn (extract_req ~id:5 ~jobs:1 inverter_cif)) in
  check "shard-raise: flat fallback still works" (jbool (jget flat "ok"));
  close_conn conn;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 8. SIGKILL, stale temp, restart: warm cache byte-identical         *)

let test_kill_restart () =
  let dir = scratch () in
  let cache_dir = Filename.concat dir "cache" in
  let chip = ram_cif 8 in
  let sock1 = Filename.concat dir "s1.sock" in
  let pid1 = start_socket_daemon [ "--cache-dir"; cache_dir ] sock1 in
  let conn1 = connect sock1 in
  let cold = rpc conn1 (extract_req ~id:1 chip) in
  check "restart: cold reply ok" (jbool (jget (jparse cold) "ok"));
  close_conn conn1;
  (* no clean shutdown: the daemon dies hard *)
  Unix.kill pid1 Sys.sigkill;
  reap pid1;
  (* a writer killed mid-store leaves a temp file; plant one *)
  write_file
    (Filename.concat cache_dir ".tmp.deadbeefdeadbeef.1")
    "half-written garbage";
  let sock2 = Filename.concat dir "s2.sock" in
  let pid2 = start_socket_daemon [ "--cache-dir"; cache_dir ] sock2 in
  let conn2 = connect sock2 in
  let warm = rpc conn2 (extract_req ~id:1 chip) in
  let jw = jparse warm in
  check "restart: warm reply served from the persisted cache"
    (jbool (jget jw "ok") && jbool (jget jw "cached"));
  check_s "restart: warm result byte-identical to pre-kill cold"
    (result_fragment warm) (result_fragment cold);
  check_s "restart: warm wirelist = -j1 one-shot wirelist"
    (jstr (jget (jget jw "result") "wirelist"))
    (reference_wirelist chip);
  check "restart: stale temp file swept"
    (not (Sys.file_exists (Filename.concat cache_dir ".tmp.deadbeefdeadbeef.1")));
  close_conn conn2;
  shutdown_daemon pid2 sock2

(* ------------------------------------------------------------------ *)
(* 9. Sustained overload: structured rejections with retry hints      *)

let test_overload () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_socket_daemon
      [ "--no-cache"; "--max-inflight"; "1"; "--fault"; "slow-request=600" ]
      sock
  in
  let results = Array.make 4 "" in
  let threads =
    Array.init 4 (fun i ->
        Thread.create
          (fun () ->
            let conn = connect sock in
            (* stagger slightly so one request reliably wins the slot *)
            if i > 0 then Unix.sleepf 0.15;
            results.(i) <- rpc conn (extract_req ~id:i inverter_cif);
            close_conn conn)
          ())
  in
  Array.iter Thread.join threads;
  let parsed = Array.to_list (Array.map jparse results) in
  let ok_count = List.length (List.filter (fun j -> jbool (jget j "ok")) parsed) in
  let overloaded =
    List.filter
      (fun j -> (not (jbool (jget j "ok"))) && err_code j = "overloaded")
      parsed
  in
  check "overload: at least one request served" (ok_count >= 1);
  check "overload: at least one structured rejection"
    (List.length overloaded >= 1);
  check "overload: rejections carry retry_after_ms"
    (List.for_all
       (fun j -> jnum (jget (jget j "error") "retry_after_ms") > 0)
       overloaded);
  let stats = jparse (rpc (connect sock) {|{"id":9,"op":"stats"}|}) in
  check "overload: overloads counter ticked"
    (jnum (jget (jget stats "counters") "overloads") >= 1);
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 10. Oversized request lines: drained, rejected, connection usable  *)

let test_too_large () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_socket_daemon [ "--no-cache"; "--max-request-bytes"; "500" ] sock
  in
  let conn = connect sock in
  let big = "{\"op\":\"extract\",\"cif\":\"" ^ String.make 4000 'B' ^ "\"}" in
  let r1 = jparse (rpc conn big) in
  check "too-large: typed rejection" (err_code r1 = "request-too-large");
  let r2 = jparse (rpc conn {|{"id":2,"op":"ping"}|}) in
  check "too-large: connection still usable" (jbool (jget r2 "pong"));
  close_conn conn;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 11. Cache unit tests (in-process)                                  *)

let test_cache_unit () =
  let module Cache = Serve.Cache in
  let dir = scratch () in
  (* a stale temp file from a "crashed" writer is swept at open *)
  write_file (Filename.concat dir ".tmp.cafe.1") "junk";
  let c =
    match Cache.open_dir ~faults:(Serve.Faults.none ()) dir with
    | Ok c -> c
    | Error m -> failwith m
  in
  check "cache: open sweeps stale temp files"
    (not (Sys.file_exists (Filename.concat dir ".tmp.cafe.1")));
  Cache.store c "aaaaaaaaaaaaaaaa" "payload-a";
  check "cache: roundtrip" (Cache.find c "aaaaaaaaaaaaaaaa" = Some "payload-a");
  check "cache: miss on unknown key" (Cache.find c "ffffffffffffffff" = None);
  (* truncation -> quarantine *)
  let path_a = Filename.concat dir "aaaaaaaaaaaaaaaa.ace" in
  let full = In_channel.with_open_bin path_a In_channel.input_all in
  write_file path_a (String.sub full 0 (String.length full - 3));
  check "cache: truncated entry is a miss" (Cache.find c "aaaaaaaaaaaaaaaa" = None);
  check "cache: truncated entry quarantined"
    (Sys.file_exists (path_a ^ ".quarantined"));
  (* version mismatch -> silent delete, no quarantine *)
  write_file path_a "ace-cache/0 0123456789abcdef 4\nold!";
  check "cache: old version is a miss" (Cache.find c "aaaaaaaaaaaaaaaa" = None);
  check "cache: old version deleted, not quarantined"
    (not (Sys.file_exists path_a));
  (* gc clears quarantine *)
  let g = Cache.gc c in
  check "cache: gc removes quarantined files"
    (g.Cache.removed_quarantined >= 1
    && not (Sys.file_exists (path_a ^ ".quarantined")));
  (* LRU eviction under a byte cap, with planted mtimes *)
  let dir2 = scratch () in
  let c2 =
    match
      Cache.open_dir ~max_bytes:250 ~faults:(Serve.Faults.none ()) dir2
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let payload = String.make 60 'x' in
  Cache.store c2 "0000000000000001" payload;
  Cache.store c2 "0000000000000002" payload;
  (* age both entries: key 1 older than key 2, both older than key 3 *)
  Unix.utimes (Filename.concat dir2 "0000000000000001.ace") 1000.0 1000.0;
  Unix.utimes (Filename.concat dir2 "0000000000000002.ace") 2000.0 2000.0;
  Cache.store c2 "0000000000000003" payload;
  (* three ~95-byte entries > 250-byte cap: the oldest must go *)
  check "cache: LRU evicts the oldest entry"
    (Cache.find c2 "0000000000000001" = None);
  check "cache: newer entries survive eviction"
    (Cache.find c2 "0000000000000002" = Some payload
    && Cache.find c2 "0000000000000003" = Some payload);
  let s = Cache.stats c2 in
  check "cache: eviction counted" (s.Cache.evictions >= 1);
  (* a hit refreshes LRU position: touch 2, add 4, 3 must be evicted *)
  Unix.utimes (Filename.concat dir2 "0000000000000002.ace") 1000.0 1000.0;
  Unix.utimes (Filename.concat dir2 "0000000000000003.ace") 2000.0 2000.0;
  ignore (Cache.find c2 "0000000000000002");
  Cache.store c2 "0000000000000004" payload;
  check "cache: touch-on-hit protects hot entries"
    (Cache.find c2 "0000000000000002" = Some payload
    && Cache.find c2 "0000000000000003" = None)

(* Stores write outside the cache lock, each through its own temp file:
   eight threads racing on one key leave exactly one complete entry. *)
let test_cache_concurrent_store () =
  let module Cache = Serve.Cache in
  let dir = scratch () in
  let c =
    match Cache.open_dir ~faults:(Serve.Faults.none ()) dir with
    | Ok c -> c
    | Error m -> failwith m
  in
  let key = "0123456789abcdef" in
  (* equal lengths, distinct bytes: two writers sharing one file would
     interleave into an entry that fails its checksum *)
  let payloads =
    List.init 8 (fun k ->
        String.init (256 * 1024) (fun i -> Char.chr (32 + ((i + k) mod 90))))
  in
  let go = Atomic.make false in
  let threads =
    List.map
      (fun payload ->
        Thread.create
          (fun () ->
            while not (Atomic.get go) do
              Thread.yield ()
            done;
            Cache.store c key payload)
          ())
      payloads
  in
  Atomic.set go true;
  List.iter Thread.join threads;
  let names = Array.to_list (Sys.readdir dir) in
  check "concurrent store: exactly one entry"
    (List.filter (fun n -> Filename.check_suffix n ".ace") names
    = [ key ^ ".ace" ]);
  check "concurrent store: no temp file left behind"
    (not (List.exists (String.starts_with ~prefix:".tmp") names));
  check "concurrent store: find returns a stored payload"
    (match Cache.find c key with
    | Some p -> List.mem p payloads
    | None -> false);
  let s = Cache.stats c in
  check "concurrent store: every store landed, none quarantined"
    (s.Cache.stores = 8 && s.Cache.quarantined = 0)

let test_fnv_vectors () =
  let h = Serve.Cache.fnv1a64_hex in
  check_s "fnv1a64: empty string" (h "") "cbf29ce484222325";
  check_s "fnv1a64: \"a\"" (h "a") "af63dc4c8601ec8c";
  check_s "fnv1a64: \"foobar\"" (h "foobar") "85944171f73967e8";
  (* keys hash their fields as parts; the value must stay the hash of
     the \x00-joined fields that named existing cache files *)
  List.iteri
    (fun k parts ->
      check_s
        (Printf.sprintf
           "fnv1a64 parts = hash of the joined parts (%d parts, case %d)"
           (List.length parts) k)
        (Serve.Cache.fnv1a64_hex_parts parts)
        (h (String.concat "\x00" parts)))
    [
      [];
      [ "" ];
      [ ""; "" ];
      [ "foo"; "bar" ];
      [ "a\x00b"; ""; "c" ];
      [ "1"; "0"; "chip"; "1"; "-"; inverter_cif ];
    ]

(* The entry checksum and raw key: the word hash.  The vectors pin its
   values (an independent implementation of the algorithm in
   [Cache.hash64_hex_parts] gives the same), with a part that is empty,
   shorter than a word, exactly one word, and words plus a tail. *)
let test_hash64_vectors () =
  let h = Serve.Cache.hash64_hex and hp = Serve.Cache.hash64_hex_parts in
  List.iter
    (fun (s, expected) ->
      check_s (Printf.sprintf "hash64: %S" s) (h s) expected)
    [
      ("", "969c56efd6604ca3");
      ("a", "37574f4e0c795882");
      ("foobar", "8eb6af3ee2a83f08");
      ("1234567", "09d04eb213d3642e");
      ("12345678", "f462fca4daa8e188");
      ("123456789", "e65ffed7c28e8287");
      ("The quick brown fox jumps over the lazy dog", "e2216031e0e35c1b");
    ];
  check_s "hash64 parts: one part = the string" (hp [ "foobar" ]) (h "foobar");
  check_s "hash64 parts: [a; bc]" (hp [ "a"; "bc" ]) "78f13924fcf02084";
  check_s "hash64 parts: [ab; c]" (hp [ "ab"; "c" ]) "793fc29e8ffcc28d";
  check "hash64 parts: framed by length"
    (hp [ "a"; "bc" ] <> hp [ "ab"; "c" ]
    && hp [ ""; "a" ] <> hp [ "a"; "" ]
    && hp [ "a" ] <> hp [ "a"; "" ]
    && hp [ "\x00" ] <> hp [ "" ])

(* Every single-bit flip of a 64-byte payload changes its checksum, and
   the cache quarantines the flipped entry instead of serving it. *)
let test_hash64_bit_flips () =
  let module Cache = Serve.Cache in
  let payload = String.init 64 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let sum = Cache.hash64_hex payload in
  let flip bit =
    let b = Bytes.of_string payload in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  in
  let bits = List.init (8 * String.length payload) Fun.id in
  check "hash64: every bit flip of a 64-byte payload changes the sum"
    (List.for_all (fun bit -> Cache.hash64_hex (flip bit) <> sum) bits);
  let dir = scratch () in
  let c =
    match Cache.open_dir ~faults:(Serve.Faults.none ()) dir with
    | Ok c -> c
    | Error m -> failwith m
  in
  let key = "00000000000000b1" in
  let path = Filename.concat dir (key ^ ".ace") in
  Cache.store c key payload;
  let entry = In_channel.with_open_bin path In_channel.input_all in
  let header = String.length entry - String.length payload in
  check "bit flips: entry holds the payload after its header"
    (String.sub entry header (String.length payload) = payload);
  let served =
    List.filter
      (fun bit ->
        write_file path (String.sub entry 0 header ^ flip bit);
        Cache.find c key <> None)
      bits
  in
  check "bit flips: no flipped entry served" (served = []);
  check "bit flips: every flipped entry quarantined"
    ((Cache.stats c).Cache.quarantined = List.length bits)

(* ------------------------------------------------------------------ *)
(* 11b. No head-of-line blocking: warm hits run beside a cold request *)

(* All connection threads share the daemon's main domain.  A cold
   extraction with no company runs there and yields at its cancel
   checkpoints, so warm hits on another connection keep completing while
   it runs instead of waiting one 50 ms runtime tick each: here the warm
   client starts once the cold miss runs, so the miss had no company and
   ran inline.  With [~domain], a first cold request beside the warm
   hits makes them company for the measured one, which runs on the
   compute domain, under the same bound. *)
let test_warm_beside_cold ~domain () =
  let label = if domain then "no-hol (compute domain)" else "no-hol" in
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn_b = connect sock in
  let warm_req = extract_req ~id:1 inverter_cif in
  let primed = jparse (rpc conn_b warm_req) in
  check (label ^ ": small chip primed") (jbool (jget primed "ok"));
  let base = compute_stats conn_b in
  let cold_req = extract_req ~id:2 (Lazy.force riscb_cif) in
  let sent_at = Atomic.make infinity and replied_at = Atomic.make infinity in
  let cold_ok = ref false and offloaded = ref false in
  let a =
    Thread.create
      (fun () ->
        let conn_a = connect sock in
        if domain then
          ignore
            (rpc conn_a (extract_req ~id:3 ~cache:false (Lazy.force riscb_cif)));
        let before = compute_count conn_a "offloaded" in
        Atomic.set sent_at (Unix.gettimeofday ());
        let r = jparse (rpc conn_a cold_req) in
        Atomic.set replied_at (Unix.gettimeofday ());
        cold_ok := jbool (jget r "ok") && not (jbool (jget r "cached"));
        offloaded := compute_count conn_a "offloaded" = before + 1;
        close_conn conn_a)
      ()
  in
  if not domain then
    check (label ^ ": the cold miss ran inline")
      (await conn_b (fun c ->
           let s = compute_stats c in
           jnum (jget s "inline") = jnum (jget base "inline") + 1
           && jnum (jget s "offloaded") = jnum (jget base "offloaded")));
  (* count only the hits that completed while A was in flight *)
  let hits = ref 0 and all_cached = ref true in
  while Atomic.get replied_at = infinity do
    let r = jparse (rpc conn_b warm_req) in
    let t = Unix.gettimeofday () in
    if not (jbool (jget r "cached")) then all_cached := false
    else if t >= Atomic.get sent_at && t <= Atomic.get replied_at then
      incr hits
  done;
  Thread.join a;
  let a_wall = Atomic.get replied_at -. Atomic.get sent_at in
  let needed = int_of_float (5.0 *. a_wall /. 0.050) in
  check (label ^ ": cold request ok") !cold_ok;
  check (label ^ ": every warm reply cached") !all_cached;
  Printf.printf "  %s: %d warm hits during a %.3f s cold request (need %d)\n%!"
    label !hits a_wall needed;
  check (label ^ ": warm hits keep flowing") (!hits >= needed);
  if domain then
    check (label ^ ": the cold miss ran on the compute domain") !offloaded;
  close_conn conn_b;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 12. Fault-spec parsing                                             *)

let test_fault_specs () =
  let module F = Serve.Faults in
  (match F.of_specs [ "cache-torn-write"; "slow-request=250"; "oom-soft" ] with
  | Ok f ->
      check "faults: specs parsed"
        (f.F.torn_write && f.F.slow_ms = 250 && f.F.oom_soft
        && (not f.F.bit_flip) && not f.F.shard_raise);
      check "faults: render roundtrip"
        (F.to_specs f = [ "cache-torn-write"; "slow-request=250"; "oom-soft" ])
  | Error m -> check ("faults: specs parsed: " ^ m) false);
  check "faults: unknown spec rejected"
    (match F.of_specs [ "set-on-fire" ] with Error _ -> true | Ok _ -> false);
  check "faults: bad delay rejected"
    (match F.of_specs [ "slow-request=soon" ] with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* 13. oom-soft: internal-error reply, daemon healthy                 *)

let test_oom_soft () =
  let replies =
    run_once
      ~args:[ "--no-cache"; "--fault"; "oom-soft" ]
      [ extract_req ~id:1 inverter_cif; {|{"id":2,"op":"ping"}|} ]
  in
  match List.map jparse replies with
  | [ r1; r2 ] ->
      check "oom-soft: internal-error reply" (err_code r1 = "internal-error");
      check "oom-soft: daemon healthy afterwards" (jbool (jget r2 "pong"))
  | _ -> check "oom-soft: two replies" false

(* ------------------------------------------------------------------ *)
(* 14. aced cache gc subcommand                                       *)

let test_cache_gc_cli () =
  let dir = scratch () in
  write_file (Filename.concat dir ".tmp.beef.2") "junk";
  write_file (Filename.concat dir "dead.ace.quarantined") "junk";
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid =
    spawn aced_exe [ "cache"; "gc"; "--cache-dir"; dir ] ~stdin:null
      ~stdout:w_out
  in
  Unix.close null;
  Unix.close w_out;
  let ic = Unix.in_channel_of_descr r_out in
  let out = try input_line ic with End_of_file -> "" in
  close_in_noerr ic;
  reap pid;
  match Json.parse out with
  | Ok j ->
      check "cache gc: reports the sweep"
        (jnum (jget j "removed_tmp") = 1
        && jnum (jget j "removed_quarantined") = 1);
      check "cache gc: files removed"
        ((not (Sys.file_exists (Filename.concat dir ".tmp.beef.2")))
        && not (Sys.file_exists (Filename.concat dir "dead.ace.quarantined")))
  | Error m -> check ("cache gc: JSON output: " ^ m) false

(* ------------------------------------------------------------------ *)
(* 15. lint and flow warm the cache they share with extract           *)

let op_req ?(id = 1) ?(name = "chip") ?(cache = true) ?(extra = []) op cif =
  Serve.Proto.obj
    ([
       ("id", Serve.Proto.int id);
       ("op", Serve.Proto.str op);
       ("name", Serve.Proto.str name);
       ("cif", Serve.Proto.str cif);
     ]
    @ extra
    @ if cache then [] else [ ("cache", "false") ])

let cached_flag reply = jbool (jget (jparse reply) "cached")

let test_circuit_ops_store () =
  let chain = data_file "chain4.cif" in
  let once_in dir lines = run_once ~args:[ "--cache-dir"; dir ] lines in
  (match
     once_in (scratch ())
       [ op_req ~id:1 "flow" chain; op_req ~id:2 "flow" chain ]
   with
  | [ f1; f2 ] ->
      check "flow miss: not cached" (not (cached_flag f1));
      check "flow: second identical request is a cache hit" (cached_flag f2)
  | _ -> check "flow: two replies" false);
  match
    ( once_in (scratch ())
        [ op_req ~id:1 "lint" chain; op_req ~id:2 "extract" chain ],
      once_in (scratch ()) [ op_req ~id:1 "extract" chain ] )
  with
  | [ lint; after_lint ], [ cold ] ->
      check "lint miss: ok, not cached"
        (jbool (jget (jparse lint) "ok") && not (cached_flag lint));
      check "extract after lint: cached" (cached_flag after_lint);
      check_s "extract after lint: result bytes = a cold extract's"
        (result_fragment after_lint) (result_fragment cold)
  | _ -> check "lint then extract: replies" false

(* ------------------------------------------------------------------ *)
(* 16. Raw-byte keys: warm hits without re-parsing                    *)

let find_from s sub from =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go from

(* A reply with its id and cached flag blanked: what a warm reply must
   share with the cold one. *)
let strip_id_cached reply =
  let body =
    match find_from reply ",\"ok\":" 0 with
    | Some i -> String.sub reply i (String.length reply - i)
    | None -> reply
  in
  List.fold_left
    (fun b flag ->
      match find_from b flag 0 with
      | Some i ->
          String.sub b 0 i ^ "\"cached\":_"
          ^ String.sub b (i + String.length flag)
              (String.length b - i - String.length flag)
      | None -> b)
    body
    [ "\"cached\":true"; "\"cached\":false" ]

(* Every compute reply ends with its front-end diagnostics. *)
let split_diags reply =
  let marker = ",\"diags\":" in
  let rec last i acc =
    match find_from reply marker i with
    | Some j -> last (j + 1) (Some j)
    | None -> acc
  in
  match last 0 None with
  | Some j ->
      (String.sub reply 0 j, String.sub reply j (String.length reply - j))
  | None -> (reply, "")

(* chain4 with a bad command and an unknown layer in front: the lenient
   front end reports both, and the rails that flow needs are intact. *)
let noisy_chain = "Q 1 2;\nL ZZ;\nB 4 4 0 0;\n" ^ data_file "chain4.cif"

(* The same layout in a different text: comments and blank lines. *)
let commented cif =
  "(the same layout);\n\n"
  ^ String.concat ";\n\n(between commands);\n" (String.split_on_char ';' cif)

(* One request per op, each under its own part name so each starts cold. *)
let raw_ops =
  let chain_sp = data_file "chain4.sp" in
  [
    ( "extract",
      fun ~id ~cache cif -> op_req ~id ~cache ~name:"x" "extract" cif );
    ("lint", fun ~id ~cache cif -> op_req ~id ~cache ~name:"l" "lint" cif);
    ("flow", fun ~id ~cache cif -> op_req ~id ~cache ~name:"f" "flow" cif);
    ( "lvs",
      fun ~id ~cache cif ->
        op_req ~id ~cache ~name:"v"
          ~extra:[ ("ref", Serve.Proto.str chain_sp) ]
          "lvs" cif );
    ( "hier lvs",
      fun ~id ~cache cif ->
        op_req ~id ~cache ~name:"h"
          ~extra:[ ("ref", Serve.Proto.str chain_sp); ("hier", "true") ]
          "lvs" cif );
  ]

let with_socket_daemon f =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn = connect sock in
  Fun.protect
    ~finally:(fun () ->
      close_conn conn;
      shutdown_daemon pid sock)
    (fun () -> f conn cache_dir)

let test_raw_warm_replies () =
  with_socket_daemon @@ fun conn _ ->
  List.iter
    (fun (op, req) ->
      let cold = rpc conn (req ~id:1 ~cache:true noisy_chain) in
      let warm = rpc conn (req ~id:2 ~cache:true noisy_chain) in
      check (op ^ ": cold ok, not cached")
        (jbool (jget (jparse cold) "ok") && not (cached_flag cold));
      check (op ^ ": diags not empty")
        (snd (split_diags cold) <> ",\"diags\":[]}");
      check (op ^ ": warm repeat cached") (cached_flag warm);
      check_s (op ^ ": warm repeat = cold reply but id and cached")
        (strip_id_cached warm) (strip_id_cached cold);
      (* a different text of the same layout misses the raw key and hits
         the canonical one; its diagnostics are its own *)
      let variant = commented noisy_chain in
      let v = rpc conn (req ~id:3 ~cache:true variant) in
      let fresh =
        List.hd
          (run_once
             ~args:[ "--cache-dir"; scratch () ]
             [ req ~id:3 ~cache:true variant ])
      in
      check (op ^ ": commented variant cached") (cached_flag v);
      check (op ^ ": commented variant is cold in a fresh daemon")
        (not (cached_flag fresh));
      check_s (op ^ ": commented variant, same result bytes")
        (fst (split_diags (strip_id_cached v)))
        (fst (split_diags (strip_id_cached cold)));
      check_s (op ^ ": commented variant, its own cold diags")
        (snd (split_diags v)) (snd (split_diags fresh));
      check (op ^ ": commented variant moves the diag spans")
        (snd (split_diags v) <> snd (split_diags cold)))
    raw_ops

let ace_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".ace")
  |> List.map (Filename.concat dir)

let flip_middle_byte path =
  let s =
    Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  let i = Bytes.length s / 2 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
  write_file path (Bytes.to_string s)

(* The memo still points at a canonical entry that is gone or corrupt:
   the request recomputes, heals the cache and answers the cold bytes. *)
let test_raw_stale_entry () =
  with_socket_daemon @@ fun conn cache_dir ->
  List.iter
    (fun (op, req) ->
      let cold = rpc conn (req ~id:1 ~cache:true noisy_chain) in
      check (op ^ ": memo primed")
        (cached_flag (rpc conn (req ~id:2 ~cache:true noisy_chain)));
      List.iter
        (fun (what, spoil) ->
          List.iter spoil (ace_files cache_dir);
          let again = rpc conn (req ~id:1 ~cache:true noisy_chain) in
          check_s
            (op ^ ": " ^ what ^ " entry recomputed, cold bytes")
            again cold;
          check
            (op ^ ": " ^ what ^ " entry healed")
            (cached_flag (rpc conn (req ~id:2 ~cache:true noisy_chain))))
        [ ("deleted", Sys.remove); ("corrupt", flip_middle_byte) ];
      check (op ^ ": corrupt entry quarantined")
        (Array.exists
           (fun n -> Filename.check_suffix n ".quarantined")
           (Sys.readdir cache_dir)))
    raw_ops

(* More distinct texts than the memo's budget holds: it starts over, and
   every earlier text still answers its first reply's bytes. *)
let test_raw_memo_budget () =
  let warnings =
    String.concat ""
      (List.init 200 (fun k -> Printf.sprintf "L ND;\nB 0 %d 10 10;\n" (k + 1)))
  in
  let text k = Printf.sprintf "(variant %d);\n%s%s" k warnings noisy_chain in
  with_socket_daemon @@ fun conn _ ->
  let first = rpc conn (op_req ~id:0 "extract" (text 0)) in
  let entry = String.length (snd (split_diags first)) in
  let n = (Serve.Server.memo_budget_bytes / entry) + 5 in
  Printf.printf "  memo budget: %d texts of %d diag bytes\n%!" n entry;
  let replies =
    first
    :: List.init (n - 1) (fun k ->
           rpc conn (op_req ~id:0 "extract" (text (k + 1))))
  in
  check "memo budget: every text ok"
    (List.for_all (fun r -> jbool (jget (jparse r) "ok")) replies);
  let again =
    List.init n (fun k -> rpc conn (op_req ~id:0 "extract" (text k)))
  in
  check "memo budget: every earlier text answers its first bytes"
    (List.for_all2
       (fun a b -> strip_id_cached a = strip_id_cached b)
       again replies)

let test_raw_no_cache () =
  with_socket_daemon @@ fun conn cache_dir ->
  let replies =
    List.concat_map
      (fun (_, req) ->
        [
          rpc conn (req ~id:1 ~cache:false noisy_chain);
          rpc conn (req ~id:2 ~cache:false noisy_chain);
        ])
      raw_ops
  in
  check "cache:false: every reply ok"
    (List.for_all (fun r -> jbool (jget (jparse r) "ok")) replies);
  check "cache:false: no reply cached" (not (List.exists cached_flag replies));
  check "cache:false: no cache file written" (Sys.readdir cache_dir = [||])

(* Canonical key values are unchanged: these names were recorded before
   the raw-key memo existed, so existing cache directories keep serving. *)
let test_canonical_names () =
  let dir = scratch () in
  let lines =
    run_once ~args:[ "--cache-dir"; dir ]
      [
        extract_req ~id:1 ~jobs:1 inverter_cif;
        lvs_req ~id:2 inverter_cif (data_file "inverter.sp");
      ]
  in
  check "canonical names: both replies ok"
    (List.for_all (fun r -> jbool (jget (jparse r) "ok")) lines);
  check "canonical names: inverter extract entry"
    (Sys.file_exists (Filename.concat dir "5ec1661c47acf3e3.ace"));
  check "canonical names: inverter lvs entry"
    (Sys.file_exists (Filename.concat dir "a3bf98d447d19130.ace"))

(* A file stamped with the previous entry format under a current
   canonical name: the name still finds it, the stamp reads as a version
   mismatch, and the entry is deleted and recomputed, not quarantined. *)
let test_v1_entry_replaced () =
  let dir = scratch () in
  let req = extract_req ~id:1 ~jobs:1 inverter_cif in
  let cold =
    match run_once ~args:[ "--cache-dir"; dir ] [ req ] with
    | [ r ] -> r
    | _ -> failwith "v1 entry: expected one reply"
  in
  let path = Filename.concat dir "5ec1661c47acf3e3.ace" in
  let entry = In_channel.with_open_bin path In_channel.input_all in
  let nl = String.index entry '\n' in
  let payload = String.sub entry (nl + 1) (String.length entry - nl - 1) in
  check "v1 entry: current entries are stamped ace-cache/2"
    (String.starts_with ~prefix:"ace-cache/2 " entry);
  write_file path
    (Printf.sprintf "ace-cache/1 %s %d\n%s"
       (Serve.Cache.fnv1a64_hex payload)
       (String.length payload) payload);
  match
    run_once ~args:[ "--cache-dir"; dir ] [ req; {|{"id":2,"op":"stats"}|} ]
  with
  | [ again; stats ] ->
      check "v1 entry: recomputed, not served"
        (jbool (jget (jparse again) "ok") && not (cached_flag again));
      check_s "v1 entry: recomputed result = the cold result"
        (result_fragment again) (result_fragment cold);
      check "v1 entry: not quarantined"
        (jnum (jget (jget (jparse stats) "cache") "quarantined") = 0
        && not (Sys.file_exists (path ^ ".quarantined")));
      check_s "v1 entry: replaced by a v2 entry"
        (In_channel.with_open_bin path In_channel.input_all)
        entry
  | _ -> check "v1 entry: two replies" false

(* `ace -j1 --name chip`'s wirelist for [cif], written under [dir]. *)
let ace_j1_wirelist dir cif =
  let cif_path = Filename.concat dir "chip.cif" in
  let wl_path = Filename.concat dir "chip.wl" in
  write_file cif_path cif;
  let null = devnull () in
  let pid =
    spawn ace_exe
      [ "-j1"; "--name"; "chip"; cif_path; "-o"; wl_path ]
      ~stdin:null ~stdout:Unix.stdout
  in
  Unix.close null;
  check "concurrent: ace -j1 exits 0" (exit_status pid = Some (Unix.WEXITED 0));
  In_channel.with_open_bin wl_path In_channel.input_all

(* Two connections send one extract request at the same moment, cold and
   then warm.  Every result is the same bytes, equal to a --once reply and
   carrying `ace -j1`'s wirelist.  A third round sends a fresh layout
   (riscb, about half a second cold) on three connections at once: all
   three miss, each has company but perhaps the first, one miss runs at
   a time, and the two behind the first find the entry it stored, so
   the three cost one extraction and one store. *)
let test_concurrent_identical () =
  let chip = chain_cif 60 in
  let dir = scratch () in
  let ace_wl = ace_j1_wirelist dir chip in
  let once =
    match run_once ~args:[ "--no-cache" ] [ extract_req ~id:1 chip ] with
    | [ r ] -> result_fragment r
    | _ -> failwith "concurrent: expected one --once reply"
  in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_socket_daemon [ "--cache-dir"; Filename.concat dir "cache" ] sock
  in
  let conns = Array.init 3 (fun _ -> connect sock) in
  let round conns chip =
    let replies = Array.make (Array.length conns) "" in
    let go = Atomic.make false in
    let threads =
      Array.mapi
        (fun i conn ->
          Thread.create
            (fun () ->
              while not (Atomic.get go) do
                Thread.yield ()
              done;
              replies.(i) <- rpc conn (extract_req ~id:(i + 1) chip))
            ())
        conns
    in
    Atomic.set go true;
    Array.iter Thread.join threads;
    Array.to_list replies
  in
  let pair = Array.sub conns 0 2 in
  let cold = round pair chip in
  let warm = round pair chip in
  let replies = cold @ warm in
  let wirelist r = jstr (jget (jget (jparse r) "result") "wirelist") in
  check "concurrent: every reply ok"
    (List.for_all (fun r -> jbool (jget (jparse r) "ok")) replies);
  check "concurrent: the second round is warm" (List.for_all cached_flag warm);
  check "concurrent: every result = the --once result"
    (List.for_all (fun r -> result_fragment r = once) replies);
  check "concurrent: every wirelist = ace -j1's"
    (List.for_all (fun r -> wirelist r = ace_wl) replies);
  let fresh = Lazy.force riscb_cif in
  let fresh_wl = ace_j1_wirelist dir fresh in
  let stores0 = cache_stores conns.(0) in
  let base = compute_stats conns.(0) in
  let three = round conns fresh in
  check "concurrent: three identical misses store once"
    (cache_stores conns.(0) = stores0 + 1);
  check "concurrent: exactly one of the three replies is cold"
    (List.length (List.filter (fun r -> not (cached_flag r)) three) = 1);
  check "concurrent: the three wirelists = ace -j1's"
    (List.for_all (fun r -> wirelist r = fresh_wl) three);
  let now = compute_stats conns.(0) in
  let offloaded = jnum (jget now "offloaded") - jnum (jget base "offloaded") in
  check "concurrent: all three missed, two or more on the compute domain"
    (misses now = misses base + 3 && offloaded >= 2);
  Array.iter close_conn conns;
  shutdown_daemon pid sock

(* ------------------------------------------------------------------ *)
(* 16b. Misses on the compute domain                                  *)

(* A request whose deadline expires while it waits behind a running miss
   gets its deadline-exceeded at once, not when the miss ahead ends, and
   is never run: only the miss ahead stores.  A lone miss after it runs
   inline, beside the idle domain. *)
let test_compute_queued_deadline () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn = connect sock in
  let stores0 = cache_stores conn in
  let offloaded0 = compute_count conn "offloaded" in
  let ahead = miss_ahead ~cache:true sock conn in
  let behind = chain_cif 30 in
  let t0 = Unix.gettimeofday () in
  let reply = jparse (rpc conn (extract_req ~id:2 ~deadline_ms:100 behind)) in
  let elapsed_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  (* queued for the domain behind the running miss, and still there: the
     miss ahead has not finished *)
  let queued = compute_stats conn in
  let first = jparse (ahead ()) in
  check "queued deadline: error code is deadline-exceeded"
    ((not (jbool (jget reply "ok"))) && err_code reply = "deadline-exceeded");
  Printf.printf "  queued deadline: answered in %d ms\n%!" elapsed_ms;
  check "queued deadline: answered promptly" (elapsed_ms < 400);
  check "queued deadline: answered while still queued behind the miss"
    (jbool (jget queued "domain")
    && jnum (jget queued "offloaded") > offloaded0
    && jnum (jget queued "queued") = 1);
  check "queued deadline: the miss ahead completed cold"
    (jbool (jget first "ok") && not (jbool (jget first "cached")));
  check "queued deadline: only the miss ahead stored"
    (cache_stores conn = stores0 + 1);
  (* the expired job has left the queue and ended *)
  check "queued deadline: the expired job is gone"
    (await conn (fun c -> compute_count c "queued" = 0));
  let inline0 = compute_count conn "inline" in
  let again = jparse (rpc conn (extract_req ~id:3 behind)) in
  check "queued deadline: the expired request left no entry behind"
    (jbool (jget again "ok") && not (jbool (jget again "cached")));
  check "lone miss: runs inline beside the idle domain"
    (compute_count conn "inline" = inline0 + 1 && domain_started conn);
  close_conn conn;
  shutdown_daemon pid sock

(* A job that raises on the compute domain (a shard fault under -j 2)
   becomes the internal-error an inline run gives, with the same
   fingerprint, and the same domain serves the miss queued behind it. *)
let test_compute_raise () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let pid =
    start_socket_daemon [ "--no-cache"; "-j"; "2"; "--fault"; "shard-raise" ]
      sock
  in
  let conn = connect sock in
  let raising = extract_req ~id:1 ~jobs:2 inverter_cif in
  let fingerprint r = jstr (jget (jget r "error") "fingerprint") in
  let inline = jparse (rpc conn raising) in
  check "compute raise: the inline run is an internal-error"
    (err_code inline = "internal-error");
  let offloaded0 = compute_count conn "offloaded" in
  let queued n = await conn (fun c -> compute_count c "offloaded" = n) in
  let ahead = miss_ahead sock conn in
  let raised = send_async sock raising in
  check "compute raise: the raising job is queued" (queued (offloaded0 + 1));
  let next =
    send_async sock
      (extract_req ~id:2 ~jobs:1 ~deadline_ms:20000 (chain_cif 12))
  in
  check "compute raise: the next job is queued behind it"
    (queued (offloaded0 + 2));
  ignore (ahead ());
  let reply = jparse (raised ()) in
  let next = jparse (next ()) in
  check "compute raise: internal-error from the domain"
    ((not (jbool (jget reply "ok"))) && err_code reply = "internal-error");
  check_s "compute raise: the inline run's fingerprint" (fingerprint reply)
    (fingerprint inline);
  check "compute raise: the domain serves the next miss"
    (jbool (jget next "ok") && domain_started conn);
  close_conn conn;
  shutdown_daemon pid sock

(* shutdown while a job runs on the compute domain: the daemon still
   exits 0. *)
let test_compute_shutdown () =
  let dir = scratch () in
  let sock = Filename.concat dir "s.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let pid = start_socket_daemon [ "--cache-dir"; cache_dir ] sock in
  let conn = connect sock in
  let offloaded0 = compute_count conn "offloaded" in
  let ahead = miss_ahead sock conn in
  let job = send_async sock (extract_req ~id:1 (Lazy.force riscb_cif)) in
  check "shutdown during a job: queued behind the miss ahead"
    (await conn (fun c -> compute_count c "offloaded" = offloaded0 + 1));
  ignore (ahead ());
  check "shutdown during a job: the job is running"
    (await conn (fun c ->
         let s = compute_stats c in
         jnum (jget s "queued") = 0 && jbool (jget s "domain")));
  let reply = jparse (rpc conn {|{"id":2,"op":"shutdown"}|}) in
  check "shutdown during a job: shutdown acknowledged"
    (jbool (jget reply "stopping"));
  check "shutdown during a job: the daemon exits 0"
    (exit_status pid = Some (Unix.WEXITED 0));
  ignore (job ());
  close_conn conn

(* The replies to a corpus of malformed requests (unterminated strings
   at every alignment, bad and short \u escapes, raw control bytes,
   trailing garbage) and a few well-formed strings the decoder must copy
   exactly, recorded from a build that scanned one byte at a time. *)
let test_malformed_corpus () =
  let file name =
    In_channel.with_open_bin
      (List.find Sys.file_exists [ name; Filename.concat "test" name ])
      In_channel.input_all
  in
  let requests =
    String.split_on_char '\n' (file "serve_malformed.jsonl")
    |> List.filter (( <> ) "")
  in
  let replies = run_once ~args:[ "--no-cache" ] requests in
  check "malformed corpus: one reply per request"
    (List.length replies = List.length requests);
  check_s "malformed corpus: replies = the recorded bytes"
    (String.concat "" (List.map (fun r -> r ^ "\n") replies))
    (file "serve_malformed.expected")

(* ------------------------------------------------------------------ *)
(* 17. The chunked request reader, in-process                         *)

(* Replies of [serve_channel] to [script], against [handle_line] on the
   lines the script holds. *)
let check_script ?max_request_bytes name script lines =
  let t = Serve.Server.create (Serve.Server.config ?max_request_bytes ()) in
  let dir = scratch () in
  let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
  write_file inp script;
  let ic = open_in_bin inp and oc = open_out_bin out in
  Serve.Server.serve_channel t ic oc;
  close_in ic;
  close_out oc;
  let got = In_channel.with_open_bin out In_channel.input_all in
  let expected =
    String.concat ""
      (List.map (fun l -> Serve.Server.handle_line t l ^ "\n") lines)
  in
  check_s ("reader: " ^ name) got expected

let ping id = Printf.sprintf {|{"id":%s,"op":"ping"}|} id

(* A ping whose id pads the line to exactly [n] bytes; the reply echoes
   every byte of it. *)
let ping_of_length n =
  let frame = String.length (ping "\"\"") in
  let pad = String.init (n - frame) (fun i -> Char.chr (97 + (i mod 26))) in
  ping ("\"" ^ pad ^ "\"")

let test_reader () =
  let big = ping_of_length 200_000 in
  check_script "a 200 KB line across chunk boundaries" (big ^ "\n") [ big ];
  check_script "three pipelined requests"
    (String.concat "\n" [ ping "1"; ping "2"; ping "3" ] ^ "\n")
    [ ping "1"; ping "2"; ping "3" ];
  let limit = 100_000 in
  let at = ping_of_length limit and over = ping_of_length (limit + 1) in
  check "reader: padded lines have the asked lengths"
    (String.length at = limit && String.length over = limit + 1);
  let long_lines = [ at; over; ping "3"; ping_of_length 300_000; ping "5" ] in
  check_script ~max_request_bytes:limit "max_request_bytes and one byte more"
    (String.concat "\n" long_lines ^ "\n")
    long_lines;
  check_script "a last line without a newline" (ping "1" ^ "\n" ^ ping "2")
    [ ping "1"; ping "2" ];
  check_script ~max_request_bytes:limit
    "an over-long last line without a newline"
    (ping "1" ^ "\n" ^ over) [ ping "1"; over ];
  check_script "an empty line" (ping "1" ^ "\n\n" ^ ping "3" ^ "\n")
    [ ping "1"; ""; ping "3" ];
  check_script "CRLF line endings"
    (ping "1" ^ "\r\n" ^ ping "2" ^ "\r\n")
    [ ping "1" ^ "\r"; ping "2" ^ "\r" ];
  check_script "empty input" "" []

(* ------------------------------------------------------------------ *)

let () =
  test_once_basics ();
  test_once_garbage ();
  test_socket_extract ();
  test_socket_lvs ();
  test_socket_lvs_hier ();
  test_once_instance_bomb ();
  test_deadline ();
  test_corruption "cache-torn-write";
  test_corruption "cache-bit-flip";
  test_shard_raise ();
  test_kill_restart ();
  test_overload ();
  test_too_large ();
  test_cache_unit ();
  test_cache_concurrent_store ();
  test_fnv_vectors ();
  test_hash64_vectors ();
  test_hash64_bit_flips ();
  test_warm_beside_cold ~domain:false ();
  test_warm_beside_cold ~domain:true ();
  test_fault_specs ();
  test_oom_soft ();
  test_cache_gc_cli ();
  test_circuit_ops_store ();
  test_raw_warm_replies ();
  test_raw_stale_entry ();
  test_raw_memo_budget ();
  test_raw_no_cache ();
  test_canonical_names ();
  test_v1_entry_replaced ();
  test_concurrent_identical ();
  test_compute_queued_deadline ();
  test_compute_raise ();
  test_compute_shutdown ();
  test_malformed_corpus ();
  test_reader ();
  if !failures > 0 then begin
    Printf.printf "test_serve: %d FAILED\n%!" !failures;
    exit 1
  end
  else Printf.printf "test_serve: all passed\n%!"
