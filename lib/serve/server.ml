module Trace = Ace_trace.Trace
module Json = Ace_trace.Json
module Diag = Ace_diag.Diag
module Cancel = Ace_core.Cancel
module Parallel = Ace_core.Parallel
module Circuit = Ace_netlist.Circuit
module Wirelist = Ace_netlist.Wirelist

type config = {
  jobs : int;
  cache : Cache.t option;
  max_request_bytes : int;
  max_inflight : int;
  default_deadline_ms : int;
  retry_after_ms : int;
  faults : Faults.t;
  vdd : string;
  gnd : string;
}

let config ?(jobs = 1) ?cache ?(max_request_bytes = 8 * 1024 * 1024)
    ?(max_inflight = 4) ?(default_deadline_ms = 0) ?(retry_after_ms = 100)
    ?faults ?(vdd = "VDD") ?(gnd = "GND") () =
  {
    jobs = max 1 jobs;
    cache;
    max_request_bytes;
    max_inflight = max 1 max_inflight;
    default_deadline_ms;
    retry_after_ms;
    faults = (match faults with Some f -> f | None -> Faults.none ());
    vdd;
    gnd;
  }

(* What a raw key resolves to: the canonical cache key and the request's
   rendered front-end diagnostics. *)
type memo_entry = { canonical : string; diags : string }

(* The compute domain's FIFO and its counters.  [queue], [busy] and
   [started] are guarded by [lock]; [changed] is broadcast when a job is
   queued, when a miss ends and when a job's result is ready. *)
type compute = {
  lock : Mutex.t;
  changed : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable busy : bool;  (* a miss is running, inline or on the domain *)
  mutable started : bool;  (* the domain exists *)
  overlap : bool Atomic.t;
      (* a compute request was admitted beside another since the last
         miss began *)
  offloaded : int Atomic.t;  (* misses pushed to [queue] *)
  inline : int Atomic.t;  (* misses run on a connection thread *)
}

type t = {
  config : config;
  inflight : int Atomic.t;
  served : int Atomic.t;
  rejected : int Atomic.t;
  failed : int Atomic.t;
  stop : bool Atomic.t;
  started_ns : int64;
  compute : compute;
  socket_path : string option Atomic.t;
  memo : (string, memo_entry) Hashtbl.t;
  memo_lock : Mutex.t;
  mutable memo_bytes : int;
}

let create config =
  {
    config;
    inflight = Atomic.make 0;
    served = Atomic.make 0;
    rejected = Atomic.make 0;
    failed = Atomic.make 0;
    stop = Atomic.make false;
    started_ns = Trace.now_ns ();
    compute =
      {
        lock = Mutex.create ();
        changed = Condition.create ();
        queue = Queue.create ();
        busy = false;
        started = false;
        overlap = Atomic.make false;
        offloaded = Atomic.make 0;
        inline = Atomic.make 0;
      };
    socket_path = Atomic.make None;
    memo = Hashtbl.create 64;
    memo_lock = Mutex.create ();
    memo_bytes = 0;
  }

let stopping t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)

let fingerprint_of_exn e = Cache.fnv1a64_hex (Printexc.to_string e)

let internal_error ~id e =
  Proto.error ~id ~code:Proto.err_internal
    ~extra:[ ("fingerprint", Proto.str (fingerprint_of_exn e)) ]
    (Printexc.to_string e)

let too_large t =
  Proto.error ~id:Json.Null ~code:Proto.err_too_large
    (Printf.sprintf "request exceeds %d bytes" t.config.max_request_bytes)

let diags_json diags = Proto.arr (List.map (fun d -> Diag.to_json d) diags)

(* ------------------------------------------------------------------ *)
(* The compute domain                                                 *)

(* Every connection thread shares the main domain and its runtime lock.
   A cache miss run there makes each warm hit beside it win that lock
   back at every blocking call (the entry read, the reply write).  So a
   miss that has company runs as a job on a domain of its own: one that
   starts while another compute request is in flight, or after one was
   admitted beside another since the previous miss began (a warm client
   between two of its requests is still company).  The domain then
   stays: spawning it again for each busy spell grew the daemon by
   about 0.3 MB a spell.  A lone miss runs inline, where it is fastest,
   so a one-connection session never starts the domain, and a lone
   client after a busy spell runs at most one miss on it.  One miss
   runs at a time, inline or as a job, so shards of concurrent requests
   do not multiply domains, and identical misses queued behind one
   another find the entry the first stored. *)

(* [c.lock] held: a miss has ended. *)
let release c =
  c.busy <- false;
  Condition.broadcast c.changed

let rec work c =
  let job =
    Mutex.protect c.lock (fun () ->
        while c.busy || Queue.is_empty c.queue do
          Condition.wait c.changed c.lock
        done;
        c.busy <- true;
        Queue.pop c.queue)
  in
  job ();
  work c

(* [c.lock] held, so a request that needs the domain while it is being
   spawned waits for the outcome.  One that cannot be spawned is tried
   again by the next miss with company; this one runs inline. *)
let domain_up c =
  if not c.started then
    c.started <-
      (match Domain.spawn (fun () -> work c) with
      | (_ : _ Domain.t) -> true
      | exception _ -> false);
  c.started

(* Run [f x] on this thread once no other miss runs.  A lone miss finds
   none; only misses that could not reach the domain wait, polling the
   token as a queued job's waiter does. *)
let run_inline c ~cancel f x =
  let rec acquire () =
    if
      not
        (Mutex.protect c.lock (fun () ->
             (not c.busy) && (c.busy <- true; true)))
    then begin
      Cancel.check cancel;
      Unix.sleepf 0.001;
      acquire ()
    end
  in
  acquire ();
  Atomic.incr c.inline;
  Fun.protect
    (fun () -> f x)
    ~finally:(fun () -> Mutex.protect c.lock (fun () -> release c))

(* Queue [f x] and wait for its result.  Without a deadline the waiter
   sleeps on a condition; with one it polls its token, so a request
   queued behind a long job still gets a prompt [deadline-exceeded].
   The job checks the same token before it starts, so a request given
   up while queued never runs and never stores.  The job lets go of [x]
   as it starts, so what [f] is done with can be freed while it runs. *)
let offload c ~cancel f x =
  let result = ref None and arg = ref (Some x) in
  let job () =
    let r =
      match
        Cancel.check cancel;
        let x = Option.get !arg in
        arg := None;
        f x
      with
      | v -> Ok v
      | exception e -> Error e
    in
    Mutex.protect c.lock (fun () ->
        result := Some r;
        release c)
  in
  Mutex.protect c.lock (fun () ->
      Queue.push job c.queue;
      Atomic.incr c.offloaded;
      Condition.broadcast c.changed);
  let r =
    if Cancel.remaining_ms cancel = None then
      Mutex.protect c.lock (fun () ->
          let rec wait () =
            match !result with
            | Some r -> r
            | None ->
                Condition.wait c.changed c.lock;
                wait ()
          in
          wait ())
    else
      let rec poll () =
        match Mutex.protect c.lock (fun () -> !result) with
        | Some r -> r
        | None ->
            Cancel.check cancel;
            Unix.sleepf 0.001;
            poll ()
      in
      poll ()
  in
  match r with Ok v -> v | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Compute path                                                       *)

let run_extract t ~cancel ~jobs ~tile ~name design =
  let on_shard idx =
    if t.config.faults.Faults.shard_raise && idx > 0 then
      failwith (Printf.sprintf "injected shard fault (shard %d)" idx)
  in
  Parallel.extract_with_stats ~cancel ~on_shard ~jobs ?tile ~name design

(* The cached payload: the complete per-op result object, so a warm
   reply can splice it verbatim.  Byte-identity between warm and cold
   replies is the contract the restart tests check. *)
let payload_of_circuit circuit warnings =
  Proto.obj
    [
      ("wirelist", Proto.str (Wirelist.to_string circuit));
      ("nets", Proto.int (Circuit.net_count circuit));
      ("devices", Proto.int (Array.length circuit.Circuit.devices));
      ("warnings", diags_json warnings);
    ]

let circuit_of_payload payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok j -> (
      match Json.member "wirelist" j with
      | Some (Json.Str wl) -> (
          try Some (Wirelist.of_string wl) with _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Cache keys                                                         *)

(* A request reaches its cache entry by two keys over the same fields.
   The canonical key hashes the writer's rendering of the checked design,
   so texts of one layout share an entry; it names the file on disk, so
   it keeps FNV-1a from build to build.  The raw key hashes the request's
   CIF bytes as sent, 8 at a time with {!Cache.hash64_hex_parts}, and is
   only looked up in [t.memo], which maps it to the canonical key and the
   rendered front-end diagnostics: a warm hit on bytes seen before
   neither parses nor canonicalises.  The memo stays in memory because its
   diagnostics come from this build's front end; a restarted daemon
   reaches its persisted entries through the canonical key, once per
   distinct text. *)

type family = Circuit | Lvs

(* The tile grid is part of the key: the wirelist is grid-invariant,
   but the cached payload also carries the warnings, whose shard framing
   ("shard i/n: ...") depends on the grid. *)
let tile_tag = function
  | None -> "-"
  | Some (c, r) -> Printf.sprintf "%dx%d" c r

let circuit_fields ~name ~jobs ~tile =
  [ name; string_of_int jobs; tile_tag tile ]

let canonical_key family fields design canonical =
  Cache.fnv1a64_hex_parts
    ((match family with Circuit -> [] | Lvs -> [ "lvs" ])
    @ string_of_int Cache.key_version
      :: string_of_int (Ace_cif.Design.quantum design)
      :: fields
    @ [ canonical ])

let raw_key family fields cif =
  Cache.hash64_hex_parts
    (((match family with Circuit -> "raw" | Lvs -> "raw-lvs") :: fields)
    @ [ cif ])

let memo_budget_bytes = 1 lsl 20

(* The three strings plus about a dozen words of table cell, record and
   string headers. *)
let memo_entry_bytes raw m =
  String.length raw + String.length m.canonical + String.length m.diags + 96

let memo_find t raw =
  Mutex.protect t.memo_lock (fun () -> Hashtbl.find_opt t.memo raw)

(* Past the budget the memo starts over: its entries are cheap to
   rebuild, one parse per distinct text. *)
let memo_add t raw m =
  let n = memo_entry_bytes raw m in
  if n <= memo_budget_bytes then
    Mutex.protect t.memo_lock @@ fun () ->
    Option.iter
      (fun old -> t.memo_bytes <- t.memo_bytes - memo_entry_bytes raw old)
      (Hashtbl.find_opt t.memo raw);
    if t.memo_bytes + n > memo_budget_bytes then begin
      Hashtbl.reset t.memo;
      t.memo_bytes <- 0
    end;
    Hashtbl.replace t.memo raw m;
    t.memo_bytes <- t.memo_bytes + n

(* ------------------------------------------------------------------ *)
(* Cached computations                                                *)

(* A request's CIF and, built on first use, its checked design with the
   rendered front-end diagnostics, and its canonical text.  One request
   may look up two entries (flat LVS and the circuit under it); both
   share one parse and one rendering.  [in_miss] is set once the
   request's first miss starts: a lookup after it (the circuit under a
   flat LVS) is part of that miss, wherever it runs. *)
type front = {
  cif : string;
  checked : (Ace_cif.Design.t * string) Lazy.t;
  canonical_text : string Lazy.t;
  mutable in_miss : bool;
}

let front_of_cif cif =
  let checked =
    lazy
      (let ast, pdiags = Ace_cif.Parser.parse_string_lenient cif in
       let design, sdiags = Ace_cif.Design.of_ast_lenient ast in
       (design, diags_json (pdiags @ sdiags)))
  in
  let canonical_text =
    lazy
      (Ace_cif.Writer.to_string (Ace_cif.Design.ast (fst (Lazy.force checked))))
  in
  { cif; checked; canonical_text; in_miss = false }

(* Run the miss path [f front] inline or on the compute domain, as the
   comment on the compute domain above sets out.  [front] is passed, not
   captured by [f], so the parse and the canonical text are dropped at
   their last use, before the extraction's payload is rendered. *)
let on_miss t ~cancel front f =
  if front.in_miss then f front
  else begin
    front.in_miss <- true;
    let c = t.compute in
    let company =
      Atomic.exchange c.overlap false || Atomic.get t.inflight >= 2
    in
    let offload_it =
      Mutex.protect c.lock (fun () ->
          (company || c.busy || not (Queue.is_empty c.queue)) && domain_up c)
    in
    if offload_it then offload c ~cancel f front
    else run_inline c ~cancel f front
  end

(* [cached t ~cancel ~use_cache family fields front ~of_payload ~compute]
   is (value, cached?, diags).  A warm hit costs one hash over the CIF, a
   memo lookup and the cache read, all on the connection thread.
   Otherwise the miss runs through {!on_miss}: the request parses, keys
   by the canonical text and looks up again, so a different text of a
   known layout still hits, and so does an identical request queued
   behind the miss that stored it.  Misses, including entries evicted,
   quarantined or unreadable by [of_payload] since the memo saw them, run
   [compute] and store the payload it returns, which heals the cache.
   Without a cache no key is hashed and the memo is left alone. *)
let cached t ~cancel ~use_cache family fields front ~of_payload ~compute =
  match if use_cache then t.config.cache else None with
  | None ->
      on_miss t ~cancel front @@ fun front ->
      let design, diags = Lazy.force front.checked in
      (fst (compute design), false, diags)
  | Some c -> (
      let raw = raw_key family fields front.cif in
      let memo = memo_find t raw in
      let hit m =
        Option.map
          (fun v -> (v, m))
          (Option.bind (Cache.find c m.canonical) of_payload)
      in
      match Option.bind memo hit with
      | Some (v, m) -> (v, true, m.diags)
      | None ->
          on_miss t ~cancel front @@ fun front ->
          let design, diags = Lazy.force front.checked in
          let key, found =
            match memo with
            | Some m -> (m.canonical, None)
            | None ->
                let k =
                  canonical_key family fields design
                    (Lazy.force front.canonical_text)
                in
                (k, Option.bind (Cache.find c k) of_payload)
          in
          let v, cached =
            match found with
            | Some v -> (v, true)
            | None ->
                let v, payload = compute design in
                Option.iter (fun p -> Cache.store c key (Lazy.force p)) payload;
                (v, false)
          in
          memo_add t raw { canonical = key; diags };
          (v, cached, diags))

(* extract, lint and flow share one entry: [extract] replies with the
   payload, the others (and a flat lvs compare) read the circuit back out
   of it.  Every miss stores the payload [extract] would store. *)
let circuit_lookup t ~cancel ~use_cache ~jobs ~tile ~name front ~of_payload
    ~value =
  cached t ~cancel ~use_cache Circuit
    (circuit_fields ~name ~jobs ~tile)
    front ~of_payload
    ~compute:(fun design ->
      let circuit, stats = run_extract t ~cancel ~jobs ~tile ~name design in
      let payload = lazy (payload_of_circuit circuit stats.Parallel.warnings) in
      (value circuit payload, Some payload))

let obtain_payload t ~cancel ~use_cache ~jobs ~tile ~name front =
  circuit_lookup t ~cancel ~use_cache ~jobs ~tile ~name front
    ~of_payload:Option.some ~value:(fun _ p -> Lazy.force p)

(* A warm payload round-trips through the wirelist reader; the reader
   failing on our own checksummed output degrades to a recompute. *)
let obtain_circuit t ~cancel ~use_cache ~jobs ~tile ~name front =
  circuit_lookup t ~cancel ~use_cache ~jobs ~tile ~name front
    ~of_payload:circuit_of_payload ~value:(fun c _ -> c)

let request_params t (r : Proto.request) =
  let jobs =
    match r.Proto.jobs with
    | None -> t.config.jobs
    | Some j -> max 1 (min j t.config.jobs)
  in
  let deadline_ms =
    match r.Proto.deadline_ms with
    | Some ms -> ms
    | None -> t.config.default_deadline_ms
  in
  (* An inline miss runs on the domain the connection threads share.
     Yielding at each cancel checkpoint lets a warm hit that arrives
     beside it run instead of waiting for the runtime's 50 ms tick. *)
  let cancel =
    if deadline_ms > 0 then
      Cancel.with_deadline_ms ~yield:Thread.yield deadline_ms
    else Cancel.create ~yield:Thread.yield ()
  in
  (jobs, r.Proto.tile, cancel)

let do_extract t (r : Proto.request) front =
  let jobs, tile, cancel = request_params t r in
  let payload, cached, diags =
    obtain_payload t ~cancel ~use_cache:r.Proto.use_cache ~jobs ~tile
      ~name:r.Proto.name front
  in
  Proto.ok ~id:r.Proto.id ~op:"extract"
    [ ("cached", Proto.bool cached); ("result", payload); ("diags", diags) ]

let do_lint t (r : Proto.request) front =
  let jobs, tile, cancel = request_params t r in
  let circuit, cached, diags =
    obtain_circuit t ~cancel ~use_cache:r.Proto.use_cache ~jobs ~tile
      ~name:r.Proto.name front
  in
  let vdd = Option.value r.Proto.vdd ~default:t.config.vdd in
  let gnd = Option.value r.Proto.gnd ~default:t.config.gnd in
  let findings = Ace_lint.Engine.run ~vdd ~gnd circuit in
  let finding_json f =
    let d = Ace_lint.Finding.to_diag circuit f in
    Proto.obj
      [
        ("code", Proto.str d.Diag.code);
        ("severity", Proto.str (Diag.severity_to_string d.Diag.severity));
        ("message", Proto.str d.Diag.message);
        ("fingerprint", Proto.str (Ace_lint.Finding.fingerprint circuit f));
      ]
  in
  let errors, warnings, infos = Ace_lint.Finding.summarize findings in
  Proto.ok ~id:r.Proto.id ~op:"lint"
    [
      ("cached", Proto.bool cached);
      ("findings", Proto.arr (List.map finding_json findings));
      ("errors", Proto.int errors);
      ("warnings", Proto.int warnings);
      ("infos", Proto.int infos);
      ("diags", diags);
    ]

let do_flow t (r : Proto.request) front =
  let jobs, tile, cancel = request_params t r in
  let circuit, cached, diags =
    obtain_circuit t ~cancel ~use_cache:r.Proto.use_cache ~jobs ~tile
      ~name:r.Proto.name front
  in
  let vdd_name = Option.value r.Proto.vdd ~default:t.config.vdd in
  let gnd_name = Option.value r.Proto.gnd ~default:t.config.gnd in
  match
    ( Ace_lint.Engine.find_rail circuit vdd_name,
      Ace_lint.Engine.find_rail circuit gnd_name )
  with
  | None, _ ->
      Proto.error ~id:r.Proto.id ~code:"missing-rail"
        (Printf.sprintf "no net named %s" vdd_name)
  | _, None ->
      Proto.error ~id:r.Proto.id ~code:"missing-rail"
        (Printf.sprintf "no net named %s" gnd_name)
  | Some vdd, Some gnd ->
      let v = Ace_flow.Ternary.analyze ~cancel circuit ~vdd ~gnd in
      let nets ns =
        Proto.arr
          (List.map
             (fun n -> Proto.str (Circuit.net_display_name circuit n))
             ns)
      in
      Proto.ok ~id:r.Proto.id ~op:"flow"
        [
          ("cached", Proto.bool cached);
          ("contention", nets v.Ace_flow.Ternary.contention);
          ("bridges", Proto.int (List.length v.Ace_flow.Ternary.bridges));
          ("dead", Proto.int (List.length v.Ace_flow.Ternary.dead));
          ("float", nets v.Ace_flow.Ternary.float_nets);
          ("charge_sharing", Proto.int (List.length v.Ace_flow.Ternary.share));
          ("x_nets", Proto.int (List.length v.Ace_flow.Ternary.x_nets));
          ( "converged",
            Proto.bool v.Ace_flow.Ternary.stats.Ace_flow.Solver.converged );
          ("diags", diags);
        ]

(* LVS replies are cached whole, like extract payloads, under a key that
   also covers the reference text and the rail names — anything that can
   change the verdict.  The finding diagnostics are rendered with
   Diag.to_json, the exact lines `acelvs --diag-format=json` prints, so
   clients can diff daemon replies against one-shot runs byte for byte.
   [layout ()] is the flat compare's extracted circuit. *)
let lvs_payload ~cancel ~vdd ~gnd ~hier ~ref_format ~max_findings ~layout
    design reference_text =
  let loaded, ref_view =
    match ref_format with
    | "verilog" ->
        ( Ok
            (Ace_lvs.Verilog.parse ~name:"reference" ~vdd ~gnd reference_text),
          None )
    | _ -> (
        let loaded, view =
          if hier then
            Ace_lvs.Reference.load_view ~name:"reference" ~gnd reference_text
          else
            (Ace_lvs.Reference.load ~name:"reference" ~gnd reference_text, None)
        in
        match loaded with
        | Ok x -> (Ok x, view)
        | Error d ->
            ( Error
                (Printf.sprintf "unreadable reference netlist: %s"
                   d.Diag.message),
              None ))
  in
  match loaded with
  | Error _ as e -> e
  | Ok (reference, ref_diags) ->
      let r, hstats =
        if hier then begin
          let layout, _ = Ace_hext.Hext.extract design in
          let hr =
            Ace_lvs.Hier.run ~cancel ~vdd ~gnd ~max_findings ~layout
              ~reference ?ref_view ()
          in
          (hr.Ace_lvs.Hier.r, Some hr)
        end
        else
          ( Ace_lvs.Match.run ~cancel ~vdd ~gnd ~max_findings
              ~layout:(layout ()) ~reference (),
            None )
      in
      let verdict =
        match r.Ace_lvs.Match.outcome with
        | Ace_lvs.Match.Clean -> "clean"
        | Ace_lvs.Match.Mismatch -> "mismatch"
        | Ace_lvs.Match.Inconclusive -> "inconclusive"
      in
      let s = r.Ace_lvs.Match.stats in
      let findings = r.Ace_lvs.Match.findings in
      Ok
        (Proto.obj
           ([
              ("verdict", Proto.str verdict);
              ( "findings",
                diags_json (List.map Ace_lvs.Report.to_diag findings) );
              ( "fingerprints",
                Proto.arr
                  (List.map
                     (fun f -> Proto.str (Ace_lvs.Report.fingerprint f))
                     findings) );
              ("devices", Proto.int s.Ace_lvs.Match.layout_devices);
              ("ref_devices", Proto.int s.Ace_lvs.Match.ref_devices);
              ("nets", Proto.int s.Ace_lvs.Match.layout_nets);
              ("ref_nets", Proto.int s.Ace_lvs.Match.ref_nets);
              ("matched", Proto.int s.Ace_lvs.Match.matched);
              ("reductions", Proto.int s.Ace_lvs.Match.reductions);
              ("rounds", Proto.int s.Ace_lvs.Match.rounds);
            ]
           @ (match hstats with
             | Some hr ->
                 [
                   ("hier", Proto.bool true);
                   ( "cell_matches",
                     Proto.int hr.Ace_lvs.Hier.cell_matches );
                   ("cell_hits", Proto.int hr.Ace_lvs.Hier.cell_hits);
                   ("fallback", Proto.bool hr.Ace_lvs.Hier.fallback);
                 ]
             | None -> [])
           @ [ ("ref_diags", diags_json ref_diags) ]))

let do_lvs t (r : Proto.request) front =
  match r.Proto.reference with
  | None ->
      Proto.error ~id:r.Proto.id ~code:Proto.err_bad_request
        "missing field \"ref\""
  | Some reference_text -> (
      let jobs, tile, cancel = request_params t r in
      let vdd = Option.value r.Proto.vdd ~default:t.config.vdd in
      let gnd = Option.value r.Proto.gnd ~default:t.config.gnd in
      let hier = r.Proto.hier in
      let ref_format = Option.value r.Proto.ref_format ~default:"spice" in
      let max_findings = Option.value r.Proto.max_findings ~default:20 in
      if not (List.mem ref_format [ "spice"; "verilog" ]) then
        Proto.error ~id:r.Proto.id ~code:Proto.err_bad_request
          "field \"ref_format\" must be \"spice\" or \"verilog\""
      else if max_findings < 0 then
        Proto.error ~id:r.Proto.id ~code:Proto.err_bad_request
          "field \"max_findings\" must be non-negative"
      else
      let use_cache = r.Proto.use_cache and name = r.Proto.name in
      let layout () =
        let circuit, _, _ =
          obtain_circuit t ~cancel ~use_cache ~jobs ~tile ~name front
        in
        circuit
      in
      let fields =
        circuit_fields ~name ~jobs ~tile
        @ [
            vdd;
            gnd;
            string_of_bool hier;
            ref_format;
            string_of_int max_findings;
            reference_text;
          ]
      in
      let computed, cached, diags =
        cached t ~cancel ~use_cache Lvs fields front
          ~of_payload:(fun p -> Some (Ok p))
          ~compute:(fun design ->
            match
              lvs_payload ~cancel ~vdd ~gnd ~hier ~ref_format ~max_findings
                ~layout design reference_text
            with
            | Ok p -> (Ok p, Some (Lazy.from_val p))
            | Error _ as e -> (e, None))
      in
      match computed with
      | Error msg ->
          Proto.error ~id:r.Proto.id ~code:Proto.err_bad_request msg
      | Ok payload ->
          Proto.ok ~id:r.Proto.id ~op:"lvs"
            [
              ("cached", Proto.bool cached);
              ("result", payload);
              ("diags", diags);
            ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

let stats_reply t id =
  let counters =
    Proto.obj
      (List.map
         (fun (c, n) -> (Trace.Counter.slug c, Proto.int n))
         (Trace.counter_totals ()))
  in
  let cache =
    match t.config.cache with
    | None -> "null"
    | Some c ->
        let s = Cache.stats c in
        Proto.obj
          [
            ("dir", Proto.str (Cache.dir c));
            ("entries", Proto.int s.Cache.entries);
            ("bytes", Proto.int s.Cache.bytes);
            ("hits", Proto.int s.Cache.hits);
            ("misses", Proto.int s.Cache.misses);
            ("stores", Proto.int s.Cache.stores);
            ("quarantined", Proto.int s.Cache.quarantined);
            ("evictions", Proto.int s.Cache.evictions);
          ]
  in
  let compute =
    let c = t.compute in
    let started, queued =
      Mutex.protect c.lock (fun () -> (c.started, Queue.length c.queue))
    in
    Proto.obj
      [
        ("domain", Proto.bool started);
        ("offloaded", Proto.int (Atomic.get c.offloaded));
        ("inline", Proto.int (Atomic.get c.inline));
        ("queued", Proto.int queued);
      ]
  in
  let uptime_ms =
    Int64.to_int (Int64.div (Int64.sub (Trace.now_ns ()) t.started_ns) 1_000_000L)
  in
  Proto.ok ~id ~op:"stats"
    [
      ("served", Proto.int (Atomic.get t.served));
      ("inflight", Proto.int (Atomic.get t.inflight));
      ("rejected", Proto.int (Atomic.get t.rejected));
      ("failed", Proto.int (Atomic.get t.failed));
      ("uptime_ms", Proto.int uptime_ms);
      ("jobs", Proto.int t.config.jobs);
      ("faults", Proto.arr (List.map Proto.str (Faults.to_specs t.config.faults)));
      ("compute", compute);
      ("counters", counters);
      ("cache", cache);
    ]

let gc_reply t id =
  match t.config.cache with
  | None ->
      Proto.ok ~id ~op:"cache-gc" [ ("enabled", "false") ]
  | Some c ->
      let g = Cache.gc c in
      Proto.ok ~id ~op:"cache-gc"
        [
          ("enabled", "true");
          ("removed_tmp", Proto.int g.Cache.removed_tmp);
          ("removed_quarantined", Proto.int g.Cache.removed_quarantined);
          ("evicted", Proto.int g.Cache.evicted);
          ("kept", Proto.int g.Cache.kept);
          ("bytes", Proto.int g.Cache.bytes);
        ]

(* Admission control for compute ops: beyond [max_inflight], reject
   immediately — bounded queue depth and memory under overload.  A
   request admitted beside another is company for the next miss. *)
let with_admission t (r : Proto.request) f =
  let n = Atomic.fetch_and_add t.inflight 1 in
  if n >= t.config.max_inflight then begin
    ignore (Atomic.fetch_and_add t.inflight (-1));
    Atomic.incr t.rejected;
    Trace.incr Trace.Counter.Overloads;
    Proto.error ~id:r.Proto.id ~code:Proto.err_overloaded
      ~extra:[ ("retry_after_ms", Proto.int t.config.retry_after_ms) ]
      "server at capacity"
  end
  else begin
    if n >= 1 then Atomic.set t.compute.overlap true;
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
      f
  end

let compute t (r : Proto.request) f =
  with_admission t r @@ fun () ->
  (* slow-request sits inside admission on purpose: it holds an inflight
     slot, so tests can drive the overload path deterministically. *)
  if t.config.faults.Faults.slow_ms > 0 then
    Unix.sleepf (float_of_int t.config.faults.Faults.slow_ms /. 1000.0);
  if t.config.faults.Faults.oom_soft then raise Out_of_memory;
  match r.Proto.cif with
  | None ->
      Proto.error ~id:r.Proto.id ~code:Proto.err_bad_request
        "missing field \"cif\""
  | Some cif -> f t r (front_of_cif cif)

let handle_request t (r : Proto.request) =
  match r.Proto.op with
  | "ping" -> Proto.ok ~id:r.Proto.id ~op:"ping" [ ("pong", "true") ]
  | "stats" -> stats_reply t r.Proto.id
  | "cache-gc" -> gc_reply t r.Proto.id
  | "shutdown" ->
      Atomic.set t.stop true;
      Proto.ok ~id:r.Proto.id ~op:"shutdown" [ ("stopping", "true") ]
  | "extract" -> compute t r do_extract
  | "lint" -> compute t r do_lint
  | "flow" -> compute t r do_flow
  | "lvs" -> compute t r do_lvs
  | op ->
      Proto.error ~id:r.Proto.id ~code:Proto.err_bad_request
        (Printf.sprintf "unknown op %S" op)

let handle_line t line =
  try
    if String.length line > t.config.max_request_bytes then too_large t
    else begin
      match Proto.parse line with
      | Error (code, msg) ->
          Atomic.incr t.failed;
          Proto.error ~id:Json.Null ~code msg
      | Ok r -> (
          match handle_request t r with
          | reply ->
              Atomic.incr t.served;
              reply
          | exception Cancel.Cancelled reason ->
              Atomic.incr t.failed;
              if reason = Proto.err_deadline then
                Trace.incr Trace.Counter.Deadline_kills;
              Proto.error ~id:r.Proto.id ~code:reason
                "request cancelled before completion"
          | exception e ->
              Atomic.incr t.failed;
              internal_error ~id:r.Proto.id e)
    end
  with e -> (* belt and braces: handle_line is total *)
    internal_error ~id:Json.Null e

(* ------------------------------------------------------------------ *)
(* Serving                                                            *)

type line_in = Line of string | Too_long | Eof

(* A connection's input: one chunk read with [input], scanned for
   newlines, and the line assembled so far. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let chunk_bytes = 65536

let reader ic =
  {
    ic;
    chunk = Bytes.create chunk_bytes;
    pos = 0;
    len = 0;
    line = Buffer.create 256;
  }

let newline_at r i =
  (* the chunk is not written while it is scanned *)
  let chunk = Bytes.unsafe_to_string r.chunk in
  let nl = Ace_trace.Swar.newline_end chunk i r.len in
  if nl < r.len then nl else -1

(* Bounded line reader: a line longer than [limit] is drained to its
   newline without being buffered, so a hostile client cannot balloon
   the daemon's memory.  A last line without a newline is still a line.
   [n] counts the line's bytes so far, [limit] of them at most kept. *)
let read_line_bounded r limit =
  (* [reset], not [clear]: the buffer of one large request is not kept
     for the rest of the connection. *)
  Buffer.reset r.line;
  let finish n =
    if n > limit then Too_long else Line (Buffer.contents r.line)
  in
  let rec go n =
    if r.pos >= r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 chunk_bytes;
      if r.len > 0 then go n else if n = 0 then Eof else finish n
    end
    else begin
      let nl = newline_at r r.pos in
      let stop = if nl < 0 then r.len else nl in
      let run = stop - r.pos in
      Buffer.add_subbytes r.line r.chunk r.pos (max 0 (min run (limit - n)));
      let n = n + run in
      if nl < 0 then begin
        r.pos <- r.len;
        go n
      end
      else begin
        r.pos <- nl + 1;
        finish n
      end
    end
  in
  go 0

let serve_channel t ic oc =
  let r = reader ic in
  let rec loop () =
    if not (stopping t) then
      match read_line_bounded r t.config.max_request_bytes with
      | Eof -> ()
      | Too_long ->
          output_string oc (too_large t);
          output_char oc '\n';
          flush oc;
          loop ()
      | Line l ->
          output_string oc (handle_line t l);
          output_char oc '\n';
          flush oc;
          loop ()
  in
  try loop () with Sys_error _ | End_of_file -> ()

let serve_once t = serve_channel t stdin stdout

(* Wake a blocked [accept] after shutdown by connecting to ourselves
   (closing the listening fd does not reliably interrupt accept). *)
let wake_listener t =
  match Atomic.get t.socket_path with
  | None -> ()
  | Some path -> (
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> ()
      | s ->
          (try Unix.connect s (Unix.ADDR_UNIX path)
           with Unix.Unix_error _ -> ());
          (try Unix.close s with Unix.Unix_error _ -> ()))

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try serve_channel t ic oc with _ -> ());
  (* Both channels are on [fd]: closing each would close it twice, and
     the second close could hit a connection accepted in between under
     the same number. *)
  close_out_noerr oc;
  if stopping t then wake_listener t

let serve_socket t path =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  Atomic.set t.socket_path (Some path);
  let rec accept_loop () =
    if not (stopping t) then
      match Unix.accept ~cloexec:true sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
          ignore (Thread.create (fun () -> handle_connection t fd) ());
          accept_loop ()
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
