(* The traced run (--trace 1, alias --layers).  Each layer's public
   functions are called in-process on the benchmark's inputs, inside
   spans the benchmark records itself (name, start, end, parent span,
   job); nothing inside lib/ is instrumented.  The spans are kept in
   memory and written to layers.json at the end, and the run prints a
   per-layer table of total and self times.  One sweep covers every
   layer, so every workload's traced run reports the same metrics.

   Allocated words are the calling domain's Gc counters, so they are
   omitted for the multi-domain tiled extraction. *)

module Trace = Ace_trace.Trace
module Timing = Ace_core.Timing

(* Every per-layer metric, in report order, with its unit.  BENCHMARK.json
   lists the same names. *)
let metrics =
  let s n = (n, "s") and c n = (n, "count") and mw n = (n, "Mwords") in
  [
    s "cif.parse_s"; mw "cif.parse_mwords";
    c "stream.boxes_popped"; c "stream.expansions";
    s "engine.front_end_s"; s "engine.list_update_s"; s "engine.devices_s";
    s "engine.output_s"; s "engine.unattributed_s"; mw "engine.mwords";
    c "engine.stops"; c "engine.max_active"; c "engine.uf_finds";
    c "engine.uf_unions"; c "engine.net_merges";
    s "netlist.write_s"; ("netlist.write_bytes", "bytes");
    s "parallel.wall_s"; s "parallel.stitch_s"; s "parallel.slowest_tile_s";
    s "parallel.tile_sum_s"; ("parallel.balance", "ratio");
    c "parallel.tile_steals"; c "parallel.seam_merges_h";
    c "parallel.seam_merges_v";
    s "cli.startup_s"; s "cli.overhead_s";
  ]
  @ List.map (fun n -> s (Printf.sprintf "cli.%s_s" n)) Inputs.chip_names
  @ [
      s "hext.extract_s"; c "hext.leaf_extractions"; c "hext.compose_calls";
      s "lvs.reference_s"; mw "lvs.reference_mwords"; s "lvs.reduce_s";
      c "lvs.reductions"; s "lvs.match_s"; mw "lvs.match_mwords";
      c "lvs.rounds"; s "lvs.hier_s"; c "lvs.cell_matches";
      ("lvs.hier_fallback_ratio", "ratio");
      s "serve.proto_s"; s "serve.cif_parse_s"; s "serve.cache_key_s";
      s "serve.cache_find_s"; s "serve.cache_store_s"; s "serve.render_s";
      s "serve.handle_warm_s"; s "serve.handle_cold_s";
      s "serve.warm_unattributed_s"; ("serve.cache_hit_ratio", "ratio");
      ("serve.contention_ms", "ms");
    ]

(* ---- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  job : string;
  parent : int;  (** -1 at top level *)
  t0 : float;
  t1 : float;
  words : float;  (** nan when not measured *)
}

let spans = ref []
let stack = ref []
let next_id = ref 0

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ?(words = true) ~job name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let w0 = alloc_words () and t0 = Proc.now () in
  let close () =
    let t1 = Proc.now () and w1 = alloc_words () in
    stack := List.tl !stack;
    let s =
      { id; name; job; parent; t0; t1; words = (if words then w1 -. w0 else nan) }
    in
    spans := s :: !spans;
    s
  in
  match f () with
  | r -> (r, close ())
  | exception e ->
      ignore (close ());
      raise e

let dur s = s.t1 -. s.t0

(* ---- metric accumulation ---------------------------------------------- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value (Hashtbl.find_opt values name) ~default:0.0
let set name v = Hashtbl.replace values name v
let add name v = set name (get name +. v)
let addi name n = add name (float_of_int n)
let mwords s = s.words /. 1e6

let counters_during f =
  let before = Trace.counter_totals () in
  let r = f () in
  let after = Trace.counter_totals () in
  (r, fun c -> List.assoc c after - List.assoc c before)

let golden_check what (g : Inputs.golden) md5 =
  Stat.check what
    (if md5 = g.wirelist_md5 then Ok ()
     else Error "wirelist differs from the ace -j1 golden")

let parse path = Ace_cif.Design.of_ast (Ace_cif.Parser.parse_file path)

(* ---- cif, stream, engine, netlist, parallel --------------------------- *)

(* The in-process `ace -j1` pipeline as one job, then the same design
   through the tiled extractor as another.  Returns the -j1 job's wall
   (for cli.overhead_s) and the tiled run's balance. *)
let extract_chip (cfg : Workloads.cfg) (c : Inputs.chip) =
  let job = "extract:" ^ c.label in
  let name = Filename.basename c.path in
  let design, js =
    span ~job "job" (fun () ->
        let design, s =
          span ~job "cif" (fun () ->
              Ace_cif.Design.of_ast
                (Ace_cif.Parser.parse_input (Ace_cif.Parser.open_file c.path)))
        in
        add "cif.parse_s" (dur s);
        add "cif.parse_mwords" (mwords s);
        let ((circuit, st), s), count =
          counters_during (fun () ->
              span ~job "engine" (fun () ->
                  Ace_core.Extractor.extract_with_stats ~name design))
        in
        let phases = [ Timing.Front_end; List_update; Devices; Output ] in
        let phase p = Timing.seconds st.timing p in
        List.iter
          (fun p -> add ("engine." ^ Timing.phase_slug p ^ "_s") (phase p))
          phases;
        add "engine.unattributed_s" (dur s -. Stat.sum (List.map phase phases));
        add "engine.mwords" (mwords s);
        addi "engine.stops" st.stops;
        set "engine.max_active" (max (get "engine.max_active") (float_of_int st.max_active));
        addi "stream.boxes_popped" (count Boxes_popped);
        addi "stream.expansions" (count Expansions);
        addi "engine.uf_finds" (count Uf_finds);
        addi "engine.uf_unions" (count Uf_unions);
        addi "engine.net_merges" (count Net_merges);
        let out = Workloads.file cfg (c.label ^ ".layers.wl") in
        let (), s =
          span ~job "netlist" (fun () ->
              Out_channel.with_open_bin out (fun oc ->
                  Ace_netlist.Wirelist.to_channel oc circuit))
        in
        add "netlist.write_s" (dur s);
        addi "netlist.write_bytes" (Unix.stat out).st_size;
        golden_check job c.golden (Inputs.md5_file out);
        design)
  in
  let job = "tiled:" ^ c.label in
  let ((circuit, st), s), count =
    counters_during (fun () ->
        span ~words:false ~job "parallel" (fun () ->
            Ace_core.Parallel.extract_with_stats ~jobs:2 ~tile:(4, 2) ~name
              design))
  in
  let tiles =
    List.map (fun (t : Ace_core.Parallel.shard) -> t.s_seconds) st.shards
  in
  add "parallel.wall_s" (dur s);
  add "parallel.stitch_s" st.stitch_seconds;
  add "parallel.slowest_tile_s" (List.fold_left max 0.0 tiles);
  add "parallel.tile_sum_s" (Stat.sum tiles);
  addi "parallel.tile_steals" (count Tile_steals);
  addi "parallel.seam_merges_h" (count Seam_merges_h);
  addi "parallel.seam_merges_v" (count Seam_merges_v);
  golden_check job c.golden
    (Inputs.md5_string (Ace_netlist.Wirelist.to_string circuit));
  (dur js, Ace_core.Parallel.balance st)

(* ---- cli: the same -j1 extraction as a subprocess --------------------- *)

let cli (cfg : Workloads.cfg) chips inproc_walls =
  let ace = Workloads.tool cfg "ace" in
  let inv = Workloads.file cfg "inverter.cif" in
  Ace_cif.Writer.to_file inv (Ace_workloads.Chips.single_inverter ());
  let startups =
    List.init 5 (fun _ ->
        let r, _ =
          span ~job:"cli:inverter" "cli" (fun () ->
              Proc.run [| ace; inv; "-o"; "/dev/null" |])
        in
        r.Proc.wall_s)
  in
  set "cli.startup_s" (Stat.median startups);
  List.iter2
    (fun (c : Inputs.chip) inproc ->
      let out = Workloads.file cfg (c.label ^ ".cli.wl") in
      let r, _ =
        span ~job:("cli:" ^ c.label) "cli" (fun () ->
            Proc.run [| ace; "-j1"; c.path; "-o"; out |])
      in
      if r.code <> 0 then Stat.check ("cli " ^ c.label) (Error "ace -j1 failed")
      else golden_check ("cli " ^ c.label) c.golden (Inputs.md5_file out);
      let chip = List.hd (String.split_on_char '@' c.label) in
      set (Printf.sprintf "cli.%s_s" chip) r.wall_s;
      add "cli.overhead_s" (r.wall_s -. inproc))
    chips inproc_walls

(* ---- hext and lvs: the lvs workload's five jobs, in-process ----------- *)

let lvs (cfg : Workloads.cfg) =
  let chip = Workloads.chip cfg in
  let flat_layout (c : Inputs.chip) =
    Ace_core.Extractor.extract ~name:(Filename.basename c.path) (parse c.path)
  in
  let hext job design =
    let (h, st), s = span ~job "hext" (fun () -> Ace_hext.Hext.extract design) in
    add "hext.extract_s" (dur s);
    addi "hext.leaf_extractions" st.leaf_extractions;
    addi "hext.compose_calls" st.compose_calls;
    h
  in
  let schip2 = flat_layout (chip "schip2" 1.0) in
  let schip2_deck = Ace_netlist.Spice.to_string schip2 in
  let testram = hext "lvs:testram-hier" (parse (chip "testram" 0.5).path) in
  let random =
    hext "lvs:random-hier"
      (Ace_cif.Design.of_ast
         (Ace_workloads.Chips.random_logic ~cells:600 ~seed:cfg.seed ()))
  in
  let riscb = flat_layout (chip "riscb" 0.3) in
  let reference job deck ~hier =
    let (r, view), s =
      span ~job "lvs.reference" (fun () ->
          match Ace_lvs.Reference.load ~name:"reference" deck with
          | Ok (r, _) ->
              ( r,
                if hier then Ace_lvs.Reference.hier_view ~name:"reference" deck
                else None )
          | Error d -> failwith (job ^ ": unreadable deck: " ^ d.message))
    in
    add "lvs.reference_s" (dur s);
    add "lvs.reference_mwords" (mwords s);
    (r, view)
  in
  let verdict job want (r : Ace_lvs.Match.result) =
    addi "lvs.rounds" r.stats.rounds;
    Stat.check job
      (if r.outcome = want then Ok () else Error "unexpected LVS verdict")
  in
  let flat name layout deck want =
    let job = "lvs:" ^ name in
    let reference, _ = reference job deck ~hier:false in
    let red, s = span ~job "lvs.reduce" (fun () -> Ace_lvs.Reduce.reduce layout) in
    add "lvs.reduce_s" (dur s);
    addi "lvs.reductions" red.merged;
    let r, s =
      span ~job "lvs.match" (fun () -> Ace_lvs.Match.run ~layout ~reference ())
    in
    add "lvs.match_s" (dur s);
    add "lvs.match_mwords" (mwords s);
    verdict job want r
  in
  let fallbacks = ref 0 in
  let hier name layout ~fallback =
    let job = "lvs:" ^ name in
    let reference, ref_view =
      reference job (Ace_netlist.Spice.of_hier layout) ~hier:true
    in
    let r, s =
      span ~job "lvs.hier" (fun () ->
          Ace_lvs.Hier.run ~layout ~reference ?ref_view ())
    in
    add "lvs.hier_s" (dur s);
    addi "lvs.cell_matches" r.cell_matches;
    if r.fallback then incr fallbacks;
    verdict job Clean r.r;
    Stat.check (job ^ " path")
      (if r.fallback = fallback then Ok ()
       else Error (Printf.sprintf "fallback %b, expected %b" r.fallback fallback))
  in
  flat "schip2" schip2 schip2_deck Clean;
  flat "schip2-drop" schip2 (Workloads.drop_card schip2_deck) Mismatch;
  hier "testram-hier" testram ~fallback:false;
  hier "random-hier" random ~fallback:true;
  flat "riscb" riscb (Ace_netlist.Spice.to_string riscb) Clean;
  set "lvs.hier_fallback_ratio" (float_of_int !fallbacks /. 2.0)

(* ---- serve: the daemon's request path, in-process --------------------- *)

let open_cache dir =
  match
    Ace_serve.Cache.open_dir ~max_mb:64 ~faults:(Ace_serve.Faults.none ()) dir
  with
  | Ok c -> c
  | Error m -> failwith m

let request_line ~id ~name cif_json =
  String.concat "" (Client.extract_request ~id ~name cif_json)

(* The warm path split into the steps Server.handle_line takes for a hit
   (parse the request, parse the CIF, key it, look it up), plus the
   cold-only steps (store, render); each timed [reps] times per chip and
   reported as the sum over chips of the per-chip medians. *)
let serve (cfg : Workloads.cfg) =
  let reps = 5 in
  let cache = open_cache (Workloads.file cfg "layers-cache") in
  let server = Ace_serve.Server.create (Ace_serve.Server.config ~cache ()) in
  let bench_cache = open_cache (Workloads.file cfg "layers-bench-cache") in
  let timed job name f =
    let samples = List.init reps (fun _ -> dur (snd (span ~job name f))) in
    add ("serve." ^ name ^ "_s") (Stat.median samples)
  in
  let warm =
    List.map
      (fun (c : Inputs.chip) ->
        let job = "serve:" ^ c.label in
        let cif = Proc.read_file c.path in
        let line = request_line ~id:1 ~name:c.label (Ace_serve.Proto.str cif) in
        let reply, s =
          span ~job "handle_cold" (fun () -> Ace_serve.Server.handle_line server line)
        in
        add "serve.handle_cold_s" (dur s);
        Stat.check job (Client.check_cold c.golden reply);
        let primed = Client.result_bytes reply in
        let design = parse c.path in
        let circuit = Ace_core.Extractor.extract ~name:c.label design in
        let key () =
          Ace_serve.Cache.fnv1a64_hex
            (Ace_cif.Writer.to_string (Ace_cif.Design.ast design))
        in
        let warm () =
          let reply = Ace_serve.Server.handle_line server line in
          Stat.check job (Client.check_warm ~primed reply)
        in
        timed job "handle_warm" warm;
        timed job "proto" (fun () -> ignore (Ace_serve.Proto.parse line));
        timed job "cif_parse" (fun () ->
            let ast, _ = Ace_cif.Parser.parse_string_lenient cif in
            ignore (Ace_cif.Design.of_ast_lenient ast));
        timed job "cache_key" (fun () -> ignore (key ()));
        let key = key () in
        timed job "cache_store" (fun () -> Ace_serve.Cache.store bench_cache key primed);
        timed job "cache_find" (fun () ->
            Stat.check job
              (if Ace_serve.Cache.find bench_cache key = Some primed then Ok ()
               else Error "cache lost a stored entry"));
        timed job "render" (fun () ->
            ignore (Ace_netlist.Wirelist.to_string circuit));
        (job, warm))
      (Workloads.paper cfg 0.1)
  in
  set "serve.warm_unattributed_s"
    (get "serve.handle_warm_s"
    -. Stat.sum
         (List.map get
            [ "serve.proto_s"; "serve.cif_parse_s"; "serve.cache_key_s"; "serve.cache_find_s" ]));
  let st = Ace_serve.Cache.stats cache in
  set "serve.cache_hit_ratio"
    (float_of_int st.hits /. float_of_int (st.hits + st.misses));
  (* Contention: warm-hit latency while a second thread sends cold riscb
     extracts through the same server, minus the quiet latency. *)
  let warm_latencies seconds =
    let until = Proc.now () +. seconds in
    let rec go acc =
      if Proc.now () > until && acc <> [] then acc
      else
        go
          (List.fold_left
             (fun acc (job, warm) -> dur (snd (span ~job "handle_warm_contended" warm)) :: acc)
             acc warm)
    in
    go []
  in
  let phase = Float.min 2.0 cfg.seconds in
  let quiet = warm_latencies (0.25 *. phase) in
  let big = Workloads.chip cfg "riscb" 0.3 in
  let big_cif = Client.cif_json big in
  let stop = Atomic.make false in
  let cold =
    Thread.create
      (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          incr n;
          let reply =
            Ace_serve.Server.handle_line server
              (request_line ~id:!n ~name:(Printf.sprintf "contend-%d" !n) big_cif)
          in
          Stat.check "contending cold request"
            (Client.check_cold big.golden reply)
        done)
      ()
  in
  let loaded =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join cold)
      (fun () -> warm_latencies (0.75 *. phase))
  in
  set "serve.contention_ms" (1000.0 *. (Stat.median loaded -. Stat.median quiet))

(* ---- output ------------------------------------------------------------ *)

let print_table () =
  let all = List.rev !spans in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    all;
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      match Hashtbl.find_opt rows s.name with
      | Some (n, total, self') -> Hashtbl.replace rows s.name (n + 1, total +. dur s, self' +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace rows s.name (1, dur s, self))
    all;
  Printf.printf "%-24s %6s %10s %10s\n" "span" "calls" "total s" "self s";
  List.iter
    (fun name ->
      let n, total, self = Hashtbl.find rows name in
      Printf.printf "%-24s %6d %10.4f %10.4f\n" name n total self)
    (List.rev !order);
  print_endline
    "(a job span's self time is its unattributed remainder: wall minus its \
     layer spans)"

let write_json path =
  let t_base = match List.rev !spans with s :: _ -> s.t0 | [] -> 0.0 in
  let num f = if Float.is_nan f then "null" else Printf.sprintf "%.9g" f in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"spans\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"job\":%S,\"parent\":%d,\"start_s\":%s,\"end_s\":%s,\"words\":%s}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.job s.parent
            (num (s.t0 -. t_base))
            (num (s.t1 -. t_base))
            (num s.words))
        (List.sort (fun a b -> compare a.id b.id) !spans);
      output_string oc "]}\n")

(* Run the sweep; returns every per-layer metric, in [metrics] order. *)
let run (cfg : Workloads.cfg) ~json =
  let chips = Workloads.paper cfg 1.0 in
  let walls, balances = List.split (List.map (extract_chip cfg) chips) in
  set "parallel.balance" (Stat.sum balances /. float_of_int (List.length balances));
  cli cfg chips walls;
  lvs cfg;
  serve cfg;
  print_table ();
  write_json json;
  List.map
    (fun (name, unit) ->
      match Hashtbl.find_opt values name with
      | Some v -> (name, unit, v)
      | None -> failwith ("layer metric not measured: " ^ name))
    metrics
