(* End-to-end benchmark harness for ace, acelvs and aced.

     dune build && dune exec bench/e2e/main.exe -- --workload extract_flat --seed 1
     sh bench/e2e/run.sh --workload serve_mixed --seed 2 --seconds 16 --trace 0

   With --trace 0 a run times one workload against the binaries in
   --bin and prints the end-to-end metrics; with --trace 1 (--layers) it
   runs the in-process traced sweep and prints the per-layer metrics.
   Either way the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}, every output is checked,
   and a wrong one makes the exit code 1.  A changed input ("workload
   changed") or a harness error exits 2 without a result line.  See
   README.md for the workloads, metrics and bounds. *)

(* The end-to-end metrics: each the median of its samples. *)
let print_e2e name (r : Workloads.result) =
  let walls =
    List.map
      (fun round -> Stat.sum (List.map (fun (s : Workloads.sample) -> s.wall) round))
      r.rounds
  in
  let rows =
    [
      ("setup_s", "s", r.setup);
      ("wall_s", "s", walls);
      ("peak_rss_mb", "MB", List.map (fun k -> float_of_int k /. 1024.0) r.peak_rss_kib);
    ]
  in
  Printf.printf "workload %s: %d rounds%s\n" name (List.length r.rounds)
    (if r.note = "" then "" else "; " ^ r.note);
  Printf.printf "%-12s %12s %12s %12s %6s  %s\n" "metric" "median" "q1" "q3" "n" "unit";
  List.iter
    (fun (m, unit, xs) ->
      Printf.printf "%-12s %12.4f %12.4f %12.4f %6d  %s\n" m (Stat.median xs)
        (Stat.quantile 0.25 xs) (Stat.quantile 0.75 xs) (List.length xs) unit)
    rows;
  (* Per-operation latency, for reading only: percentiles over a mix of
     chips are not stable enough from run to run to gate on. *)
  let ops =
    List.concat_map (List.map (fun (s : Workloads.sample) -> 1000.0 *. s.wall)) r.rounds
  in
  Printf.printf "operation latency: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms over %d operations\n"
    (Stat.quantile 0.5 ops) (Stat.quantile 0.9 ops) (Stat.quantile 0.99 ops)
    (List.length ops);
  List.map (fun (m, unit, xs) -> (m, unit, Stat.median xs)) rows

let result_line metrics =
  let attempted = Atomic.get Stat.attempted and failed = Atomic.get Stat.failed in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (m, unit, v) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m v unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 16.0 in
  let trace = ref 0 and setups = ref 5 and scale = ref None in
  let bin = ref "_build/default/bin" and out = ref "bench/e2e/_out" in
  let golden = ref "bench/e2e/golden.json" and write_golden = ref "" in
  let smoke () =
    workload := "all";
    scale := Some Inputs.smoke_scale;
    seconds := 0.7;
    setups := 2
  in
  let names = String.concat " " (List.map fst Workloads.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ names ^ ", or all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S time budget of the measured rounds (default 16)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced per-layer sweep instead (default 0)");
      ("--layers", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--smoke", Arg.Unit smoke, " every workload and the traced sweep at scale 0.02, briefly");
      ("--bin", Arg.Set_string bin, "DIR the ace binaries (default _build/default/bin)");
      ("--out", Arg.Set_string out, "DIR work space and layers.json (default bench/e2e/_out)");
      ("--golden", Arg.Set_string golden, "PATH golden digests (default bench/e2e/golden.json)");
      ("--write-golden", Arg.Set_string write_golden, "PATH regenerate the goldens into PATH and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/e2e/main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let dir = Filename.concat !out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let fail code msg =
    prerr_endline ("bench/e2e: " ^ msg);
    exit code
  in
  (* Every child is killed and reaped, and the work space removed, on
     every exit path; the alarm bounds a wedged run. *)
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.rm_rf dir);
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> fail 3 "time limit exceeded"));
  (* a daemon that died mid-request surfaces as EPIPE, not as a kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Unix.alarm (max 170 (int_of_float !seconds + 150)));
  try
    Proc.mkdir_p dir;
    if !write_golden <> "" then begin
      Inputs.write_golden ~bin:!bin ~dir !write_golden;
      exit 0
    end;
    let cfg =
      {
        Workloads.bin = !bin;
        dir;
        golden = Inputs.load_golden !golden;
        seed = !seed;
        seconds = !seconds;
        scale = !scale;
        setups = !setups;
      }
    in
    let run name =
      match List.assoc_opt name Workloads.all with
      | None -> fail 2 ("unknown workload " ^ name ^ "; one of: " ^ names)
      | Some w -> print_e2e name (w cfg)
    in
    let layers () = Layers.run cfg ~json:(Filename.concat !out "layers.json") in
    let metrics =
      match (!workload, !trace) with
      | "", _ -> fail 2 "--workload is required"
      | "all", _ ->
          List.iter (fun (name, _) -> ignore (run name)) Workloads.all;
          ignore (layers ());
          []
      | name, 1 ->
          if not (List.mem_assoc name Workloads.all) then
            fail 2 ("unknown workload " ^ name);
          layers ()
      | name, _ -> run name
    in
    result_line metrics;
    exit (if Atomic.get Stat.failed = 0 then 0 else 1)
  with
  | Inputs.Workload_changed m -> fail 2 ("workload changed: " ^ m)
  | Failure m | Sys_error m -> fail 2 m
  | End_of_file -> fail 2 "aced closed the connection before replying"
  | Unix.Unix_error (e, f, a) ->
      fail 2 (Printf.sprintf "%s(%s): %s" f a (Unix.error_message e))
