(* Benchmark inputs and their goldens.

   The inputs are the seven paper chips, written as CIF by the
   repository's own generator.  golden.json pins, for every chip and
   scale the benchmark uses, the CIF digest (a changed generator aborts
   the run as "workload changed"), the digest of the `ace -j1` wirelist
   and the device and net counts every extraction path must reproduce. *)

exception Workload_changed of string

type golden = {
  cif_md5 : string;
  wirelist_md5 : string;
  devices : int;
  nets : int;
}

type chip = { label : string; path : string; golden : golden }

let label name scale = Printf.sprintf "%s@%g" name scale

let chip_names =
  List.map
    (fun (r : Ace_workloads.Chips.recipe) -> r.chip_name)
    Ace_workloads.Chips.paper_suite

(* The smoke run (dune runtest) shrinks every chip to this scale. *)
let smoke_scale = 0.02

(* Every (chip, scale) a run can ask for: full size for extraction, 0.1
   for warm requests, testram at 0.5 and riscb at 0.3 for LVS (riscb@0.3
   is also the loaded daemon's cold request), and the smoke scale. *)
let golden_set =
  List.concat_map
    (fun scale -> List.map (fun n -> (n, scale)) chip_names)
    [ 1.0; 0.1; smoke_scale ]
  @ [ ("testram", 0.5); ("riscb", 0.3) ]

let md5_file path = Digest.to_hex (Digest.file path)
let md5_string s = Digest.to_hex (Digest.string s)

let write_cif path name scale =
  let r =
    List.find
      (fun (r : Ace_workloads.Chips.recipe) -> r.chip_name = name)
      Ace_workloads.Chips.paper_suite
  in
  Ace_cif.Writer.to_file path (Ace_cif.Design.ast (r.build ~scale))

let load_golden path =
  let module Json = Ace_trace.Json in
  let bad m = failwith (Printf.sprintf "%s: %s" path m) in
  let j =
    match Json.parse (Proc.read_file path) with
    | Ok j -> j
    | Error m -> bad m
  in
  let tbl = Hashtbl.create 32 in
  (match Json.member "chips" j with
  | Some (Json.Obj entries) ->
      List.iter
        (fun (key, e) ->
          let str k =
            match Json.member k e with Some (Json.Str s) -> s | _ -> bad (key ^ "." ^ k)
          in
          let int k =
            match Json.member k e with
            | Some (Json.Num f) -> int_of_float f
            | _ -> bad (key ^ "." ^ k)
          in
          Hashtbl.replace tbl key
            {
              cif_md5 = str "cif_md5";
              wirelist_md5 = str "wirelist_md5";
              devices = int "devices";
              nets = int "nets";
            })
        entries
  | _ -> bad "no \"chips\" object");
  tbl

(* Generate [name] at [scale] into [dir] (once per run) and check it
   against the golden digest. *)
let chip ~dir golden name scale =
  let label = label name scale in
  let path = Filename.concat dir (label ^ ".cif") in
  let g =
    match Hashtbl.find_opt golden label with
    | Some g -> g
    | None -> raise (Workload_changed (label ^ " has no golden entry"))
  in
  if not (Sys.file_exists path) then write_cif path name scale;
  let md5 = md5_file path in
  if md5 <> g.cif_md5 then
    raise
      (Workload_changed
         (Printf.sprintf "%s CIF digest %s, golden %s" label md5 g.cif_md5));
  { label; path; golden = g }

(* Regenerate golden.json.  Each wirelist comes from `ace -j1`, must equal
   the in-process extractor's bytes, and is cross-checked once against
   the independent hierarchical extractor (`hext --flat`) with
   `wlcmp --sizes`. *)
let write_golden ~bin ~dir path =
  let tool n = Filename.concat bin (n ^ ".exe") in
  let entry (name, scale) =
    let label = label name scale in
    let cif = Filename.concat dir (label ^ ".cif") in
    let wl = Filename.concat dir (label ^ ".wl") in
    let hwl = Filename.concat dir (label ^ ".hext.wl") in
    write_cif cif name scale;
    let run argv =
      let r = Proc.run argv in
      if r.code <> 0 then
        failwith
          (Printf.sprintf "%s: %s exited %d" label
             (String.concat " " (Array.to_list argv))
             r.code)
    in
    run [| tool "ace"; "-j1"; cif; "-o"; wl |];
    let design = Ace_cif.Design.of_ast (Ace_cif.Parser.parse_file cif) in
    let circuit =
      Ace_core.Extractor.extract ~name:(Filename.basename cif) design
    in
    let wirelist_md5 = md5_file wl in
    if md5_string (Ace_netlist.Wirelist.to_string circuit) <> wirelist_md5 then
      failwith (label ^ ": ace -j1 and the in-process extractor disagree");
    run [| tool "hext_cli"; "--flat"; cif; "-o"; hwl |];
    run [| tool "wlcmp"; "--sizes"; wl; hwl |];
    Printf.eprintf "%-16s %7d devices %7d nets  hext --flat agrees\n%!" label
      (Ace_netlist.Circuit.device_count circuit)
      (Ace_netlist.Circuit.net_count circuit);
    Printf.sprintf
      "    %S: {\"cif_md5\": %S, \"wirelist_md5\": %S, \"devices\": %d, \
       \"nets\": %d}"
      label (md5_file cif) wirelist_md5
      (Ace_netlist.Circuit.device_count circuit)
      (Ace_netlist.Circuit.net_count circuit)
  in
  let entries = List.map entry golden_set in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"ace-bench-e2e-golden/1\",\n\
        \  \"regenerate\": \"dune build && dune exec bench/e2e/main.exe -- \
         --write-golden bench/e2e/golden.json\",\n\
        \  \"chips\": {\n\
         %s\n\
        \  }\n\
         }\n"
        (String.concat ",\n" entries))
