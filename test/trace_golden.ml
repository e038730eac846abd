(* trace_golden — helper for the Chrome-trace golden and regression rules.

   Default mode: parse a CIF file, extract it as four vertical strips
   under a recording session, and print the *zeroed* Chrome trace-event
   JSON (wall times, pids and allocation figures zeroed; counter values
   real) so the output is byte-stable and can be diffed against a
   committed golden.  The strips run with one worker, in order on the
   calling domain: the tile/stitch code and every per-tile counter are
   identical to a -j 4 run, without spawning a domain.

   `--validate FILE.json` mode: structurally validate an exported trace
   (valid JSON, traceEvents present, per-track monotone timestamps,
   balanced B/E pairs) — used by the broken.cif --trace regression to
   check what the CLI wrote through its at_exit hook. *)

module Trace = Ace_trace.Trace
module Chrome = Ace_trace.Chrome

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let validate path =
  match Chrome.validate (read_file path) with
  | Ok events ->
      Printf.printf "%s: valid, %d events\n" (Filename.basename path) events;
      exit 0
  | Error m ->
      Printf.eprintf "%s: INVALID trace: %s\n" path m;
      exit 1

let golden path =
  Trace.start ();
  let design =
    Ace_cif.Design.of_ast (Ace_cif.Parser.parse_file path)
  in
  ignore
    (Ace_core.Parallel.extract ~jobs:1 ~tile:(4, 1)
       ~name:(Filename.basename path) design);
  let session = Trace.stop () in
  print_string (Chrome.render ~zero:true session)

let () =
  match Sys.argv with
  | [| _; "--validate"; path |] -> validate path
  | [| _; path |] -> golden path
  | _ ->
      prerr_endline "usage: trace_golden (--validate FILE.json | FILE.cif)";
      exit 2
