(* wlcmp — wirelist equivalence comparison, on the shared CLI conventions
   (input via Cli_common, --diag-format).  Exit codes are part of the
   contract (dune golden rules depend on them): 0 = equivalent,
   1 = distinct, 2 = unreadable input.  "Equivalent" means colour
   refinement found no difference (Ace_lvs.Match.exact describes the
   circuits it cannot tell apart). *)

module Diag = Ace_diag.Diag

let run a b with_sizes with_names diag_format trace =
  Cli_common.setup_trace trace;
  let report = Cli_common.report ~format:diag_format ~tool:"wlcmp" in
  let load path =
    match Cli_common.read_input path with
    | Error d ->
        report [ d ];
        exit 2
    | Ok text -> (
        match Ace_netlist.Wirelist.of_string text with
        | c -> c
        | exception Ace_netlist.Wirelist.Error m ->
            report [ Diag.errorf ~code:"wirelist-error" "%s: %s" path m ];
            exit 2)
  in
  let ca = load a and cb = load b in
  match Ace_lvs.Match.exact ~with_sizes ~with_names ca cb with
  | Ace_lvs.Match.Equivalent ->
      Printf.printf "%s and %s are equivalent (%d devices, %d nets)\n" a b
        (Ace_netlist.Circuit.device_count ca)
        (Ace_netlist.Circuit.net_count ca);
      exit 0
  | Ace_lvs.Match.Distinct reason ->
      (* Count mismatches get their own stable code so CI can tell "the
         extractor dropped devices" from "same counts, different graph". *)
      let code =
        match reason with
        | Ace_lvs.Match.Device_counts _ | Ace_lvs.Match.Net_counts _ ->
            "wl-count-mismatch"
        | Ace_lvs.Match.Structure _ -> "wl-distinct"
      in
      report
        [
          Diag.errorf ~code "%s vs %s: %s" a b
            (Ace_lvs.Match.reason_to_string reason);
        ];
      exit 1

open Cmdliner

let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A")
let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B")

let with_sizes =
  Arg.(value & flag & info [ "sizes" ] ~doc:"Require matching transistor L/W.")

let with_names =
  Arg.(value & flag & info [ "names" ] ~doc:"Require matching net names.")

let cmd =
  Cmd.v
    (Cmd.info "wlcmp" ~doc:"Compare two wirelists for circuit equivalence")
    Term.(
      const run $ a $ b $ with_sizes $ with_names $ Cli_common.diag_format_t
      $ Cli_common.trace_t)

let () = exit (Cmd.eval cmd)
