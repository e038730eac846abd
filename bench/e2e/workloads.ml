(* The end-to-end workloads.  Every operation is a real binary run as a
   subprocess, or a request to a running aced over its socket; tracing is
   off throughout.  A workload repeats rounds of its operations, in
   seed-shuffled order, until the next round would overrun the time
   budget. *)

type cfg = {
  bin : string;  (** directory holding ace.exe, acelvs.exe, ... *)
  dir : string;  (** this run's work directory *)
  golden : (string, Inputs.golden) Hashtbl.t;
  seed : int;
  seconds : float;
  scale : float option;  (** overrides every chip scale (smoke runs) *)
  setups : int;  (** set-up repetitions; setup_s is their median *)
}

type sample = { wall : float; rss_kib : int }

type result = {
  setup : float list;  (** seconds, one per set-up repetition *)
  rounds : sample list list;
  peak_rss_kib : int list;  (** per round (batch) or the daemon's VmHWM *)
  note : string;
}

let tool cfg name = Filename.concat cfg.bin (name ^ ".exe")
let file cfg name = Filename.concat cfg.dir name

let chip cfg name scale =
  Inputs.chip ~dir:cfg.dir cfg.golden name (Option.value cfg.scale ~default:scale)

let paper cfg scale = List.map (fun n -> chip cfg n scale) Inputs.chip_names

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rounds cfg rng ops =
  let rec go acc elapsed =
    if acc <> [] && Stat.sum elapsed +. Stat.median elapsed > cfg.seconds then
      List.rev acc
    else
      let t0 = Proc.now () in
      let round = List.map (fun op -> op ()) (shuffle rng ops) in
      go (round :: acc) ((Proc.now () -. t0) :: elapsed)
  in
  go [] []

(* Run [f] [cfg.setups] times, tearing down all but the last result
   (untimed), and return the set-up times with the last result. *)
let setups cfg ~teardown f =
  let rec go i times last =
    if i > cfg.setups then (List.rev times, Option.get last)
    else begin
      Option.iter teardown last;
      let t0 = Proc.now () in
      let v = f () in
      go (i + 1) ((Proc.now () -. t0) :: times) (Some v)
    end
  in
  go 1 [] None

let max_rss round = List.fold_left (fun m s -> max m s.rss_kib) 0 round

(* ---- batch workloads: one subprocess per operation ------------------- *)

let run_checked ~what ?stdout ?stderr argv check =
  let r = Proc.run ?stdout ?stderr argv in
  Stat.check what
    (if r.code < 0 then Error (Printf.sprintf "killed by signal %d" (-r.code))
     else check r);
  { wall = r.wall_s; rss_kib = r.rss_kib }

let exit_code want (r : Proc.result) =
  if r.code = want then Ok ()
  else Error (Printf.sprintf "exit %d, expected %d" r.code want)

let batch cfg ~setup jobs =
  let setup, () = setups cfg ~teardown:ignore setup in
  let rng = Random.State.make [| cfg.seed |] in
  let rounds = rounds cfg rng jobs in
  { setup; rounds; peak_rss_kib = List.map max_rss rounds; note = "" }

(* extract_flat / extract_tiled: ace on the seven paper chips at full
   size.  Both check the wirelist against the -j1 golden, so the tiled
   run is held to byte identity with the flat one. *)
let extract cfg ~tiled =
  let chips = paper cfg 1.0 in
  let mode = if tiled then [| "-j"; "2"; "--tile"; "4x2" |] else [| "-j1" |] in
  let tag = if tiled then "tiled" else "flat" in
  let ace (c : Inputs.chip) out =
    Array.concat [ [| tool cfg "ace" |]; mode; [| c.path; "-o"; out |] ]
  in
  let job (c : Inputs.chip) () =
    let out = file cfg (Printf.sprintf "%s.%s.wl" c.label tag) in
    run_checked ~what:(c.label ^ " " ^ tag) (ace c out) (fun r ->
        Result.bind (exit_code 0 r) (fun () ->
            if Inputs.md5_file out = c.golden.wirelist_md5 then Ok ()
            else Error "wirelist differs from the ace -j1 golden"))
  in
  (* Set-up loads the binary: one run on cherry, the smallest chip. *)
  let cherry = List.hd chips in
  batch cfg
    ~setup:(fun () ->
      ignore
        (run_checked ~what:"ace warm-up" (ace cherry (file cfg "warmup.wl"))
           (exit_code 0)))
    (List.map job chips)

(* A SPICE deck with its middle transistor card removed: a known
   mismatch.  The card is fixed, not seed-chosen: which card goes moves
   the mismatch diagnosis between 0.53 and 0.81 s on schip2, which would
   make the workload's cost depend on the seed. *)
let drop_card deck =
  let lines = String.split_on_char '\n' deck in
  let cards =
    List.filter_map
      (fun (i, l) -> if String.starts_with ~prefix:"M" l then Some i else None)
      (List.mapi (fun i l -> (i, l)) lines)
  in
  let victim = List.nth cards (List.length cards / 2) in
  String.concat "\n" (List.filteri (fun i _ -> i <> victim) lines)

(* lvs: five acelvs jobs with known answers.  The reference decks are
   built in set-up by the repository's own writers.  testram runs at half
   size, where its hierarchical compare takes ~1 s rather than 2.7 s, so
   a run holds several rounds. *)
let lvs cfg =
  let schip2 = chip cfg "schip2" 1.0
  and testram = chip cfg "testram" 0.5
  and riscb = chip cfg "riscb" 0.3 in
  let random = file cfg "random600.cif" in
  Ace_cif.Writer.to_file random
    (Ace_workloads.Chips.random_logic ~cells:600 ~seed:cfg.seed ());
  let build what argv = ignore (run_checked ~what argv (exit_code 0)) in
  let setup () =
    build "schip2 deck" [| tool cfg "ace"; "--spice"; schip2.path; "-o"; file cfg "schip2.sp" |];
    Out_channel.with_open_bin (file cfg "schip2.drop.sp") (fun oc ->
        output_string oc
          (drop_card (Proc.read_file (file cfg "schip2.sp"))));
    build "testram deck" [| tool cfg "hext_cli"; "--spice"; testram.path; "-o"; file cfg "testram.sp" |];
    build "random deck" [| tool cfg "hext_cli"; "--spice"; random; "-o"; file cfg "random.sp" |];
    build "riscb deck" [| tool cfg "ace"; "--spice"; riscb.path; "-o"; file cfg "riscb.sp" |]
  in
  let job name ?(hier = false) layout deck ~code ~verdict ?stats () =
    let out = file cfg (name ^ ".out") and err = file cfg (name ^ ".err") in
    let argv =
      Array.of_list
        ([ tool cfg "acelvs"; "-s" ] @ (if hier then [ "--hier" ] else [])
        @ [ layout; file cfg deck ])
    in
    run_checked ~what:("lvs " ^ name) ~stdout:out ~stderr:err argv (fun r ->
        Result.bind (exit_code code r) (fun () ->
            let has f s = Option.is_some (Client.find (Proc.read_file f) s) in
            if not (has out (": " ^ verdict ^ " ")) then
              Error ("verdict is not " ^ verdict)
            else
              match stats with
              | Some s when not (has err s) -> Error ("stats lack " ^ s)
              | _ -> Ok ()))
  in
  batch cfg ~setup
    [
      job "schip2" schip2.path "schip2.sp" ~code:0 ~verdict:"clean";
      job "schip2-drop" schip2.path "schip2.drop.sp" ~code:1 ~verdict:"MISMATCH";
      job "testram-hier" ~hier:true testram.path "testram.sp" ~code:0
        ~verdict:"clean" ~stats:"hierarchical: 1 cell matches";
      job "random-hier" ~hier:true random "random.sp" ~code:0 ~verdict:"clean"
        ~stats:"(fell back to flat compare)";
      job "riscb" riscb.path "riscb.sp" ~code:0 ~verdict:"clean";
    ]

(* ---- aced workloads: closed-loop clients, zero think time ------------- *)

(* Each daemon gets its own directory, so every one starts with an empty
   cache. *)
let daemons = ref 0

let start_daemon cfg =
  incr daemons;
  let dir = file cfg (Printf.sprintf "aced%d" !daemons) in
  Proc.mkdir_p dir;
  Client.start ~bin:cfg.bin ~dir

let stop_daemon (d, conn) =
  Client.close conn;
  Client.shutdown d

(* Warm set-up: a daemon with the seven chips at scale 0.1 cached by one
   cold request each.  Returns each chip's request and cold result bytes. *)
let primed_daemon cfg =
  let chips = paper cfg 0.1 in
  let reqs =
    List.map
      (fun (c : Inputs.chip) ->
        (c, Client.extract_request ~id:1 ~name:c.label (Client.cif_json c)))
      chips
  in
  setups cfg
    ~teardown:(fun (d, conn, _) -> ignore (stop_daemon (d, conn)))
    (fun () ->
      let d = start_daemon cfg in
      let conn = Client.connect d.sock in
      let primed =
        List.map
          (fun ((c : Inputs.chip), req) ->
            let reply, _ = Client.call conn req in
            Stat.check ("prime " ^ c.label)
              (Client.check_cold c.golden reply);
            (c, req, Client.result_bytes reply))
          reqs
      in
      (d, conn, primed))

let warm_ops conn primed =
  List.map
    (fun ((c : Inputs.chip), req, bytes) () ->
      let reply, lat = Client.call conn req in
      Stat.check ("warm " ^ c.label) (Client.check_warm ~primed:bytes reply);
      { wall = lat; rss_kib = 0 })
    primed

let finish d conn setup rounds note =
  let hwm = stop_daemon (d, conn) in
  { setup; rounds; peak_rss_kib = [ hwm ]; note }

(* serve_warm: repeated keys, every request a cache hit. *)
let serve_warm cfg =
  let setup, (d, conn, primed) = primed_daemon cfg in
  let rounds = rounds cfg (Random.State.make [| cfg.seed |]) (warm_ops conn primed) in
  finish d conn setup rounds ""

(* serve_mixed: the warm client of serve_warm beside a second client, on
   its own domain, sending cold riscb@0.3 extracts back to back.  Each has
   a fresh part name, so each misses, extracts, stores a 2 MB entry and,
   once the cache passes 64 MiB, evicts. *)
let serve_mixed cfg =
  let big = chip cfg "riscb" 0.3 in
  let big_cif = Client.cif_json big in
  let setup, (d, conn, primed) = primed_daemon cfg in
  let stop = Atomic.make false in
  let batch =
    Domain.spawn (fun () ->
        let c = Client.connect d.sock in
        let rec loop n lats =
          if Atomic.get stop then lats
          else
            let name = Printf.sprintf "cold-%d" n in
            let reply, lat =
              Client.call c (Client.extract_request ~id:n ~name big_cif)
            in
            Stat.check ("cold " ^ name)
              (Client.check_cold big.golden reply);
            loop (n + 1) (lat :: lats)
        in
        let lats = loop 1 [] in
        Client.close c;
        lats)
  in
  let rounds =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        rounds cfg (Random.State.make [| cfg.seed |]) (warm_ops conn primed))
  in
  let cold = Domain.join batch in
  finish d conn setup rounds
    (Printf.sprintf "cold client: %d requests, p50 %.1f ms" (List.length cold)
       (1000.0 *. Stat.median cold))

let all =
  [
    ("extract_flat", extract ~tiled:false);
    ("extract_tiled", extract ~tiled:true);
    ("lvs", lvs);
    ("serve_warm", serve_warm);
    ("serve_mixed", serve_mixed);
  ]
