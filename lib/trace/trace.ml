(* Pipeline-wide structured tracing.

   One process holds a set of *tracks* (one per domain, plus any explicit
   tracks the sharded extractor opens), each a flat buffer of span
   begin/end events stamped with a monotonic clock, plus an always-on
   array of named counters.  Recording spans is globally switched by one
   atomic flag: with the flag off, [with_span] is a single atomic load and
   a tail call — the null sink allocates nothing on the hot path.
   Counters are always accumulated (they are plain int-array increments on
   the domain's own buffer and feed the `-s` tables even without
   --trace).

   A *session* is one start/stop window.  [stop] snapshots every track's
   events and per-session counter deltas; the Chrome exporter and the
   text tree render sessions, never live buffers. *)

module Counter = struct
  type t =
    | Boxes_popped
    | Expansions
    | Active_merges
    | Uf_finds
    | Uf_unions
    | Net_merges
    | Transistors
    | Solver_iterations
    | Summary_hits
    | Summary_misses
    | Diags
    | Cache_hits
    | Cache_misses
    | Cache_evictions
    | Deadline_kills
    | Overloads
    | Lvs_reductions
    | Lvs_rounds
    | Lvs_matches
    | Lvs_cell_matches
    | Lvs_cell_hits
    | Tiles_extracted
    | Tile_steals
    | Seam_merges_h
    | Seam_merges_v

  let cardinal = 25

  let index = function
    | Boxes_popped -> 0
    | Expansions -> 1
    | Active_merges -> 2
    | Uf_finds -> 3
    | Uf_unions -> 4
    | Net_merges -> 5
    | Transistors -> 6
    | Solver_iterations -> 7
    | Summary_hits -> 8
    | Summary_misses -> 9
    | Diags -> 10
    | Cache_hits -> 11
    | Cache_misses -> 12
    | Cache_evictions -> 13
    | Deadline_kills -> 14
    | Overloads -> 15
    | Lvs_reductions -> 16
    | Lvs_rounds -> 17
    | Lvs_matches -> 18
    | Lvs_cell_matches -> 19
    | Lvs_cell_hits -> 20
    | Tiles_extracted -> 21
    | Tile_steals -> 22
    | Seam_merges_h -> 23
    | Seam_merges_v -> 24

  let all =
    [
      Boxes_popped;
      Expansions;
      Active_merges;
      Uf_finds;
      Uf_unions;
      Net_merges;
      Transistors;
      Solver_iterations;
      Summary_hits;
      Summary_misses;
      Diags;
      Cache_hits;
      Cache_misses;
      Cache_evictions;
      Deadline_kills;
      Overloads;
      Lvs_reductions;
      Lvs_rounds;
      Lvs_matches;
      Lvs_cell_matches;
      Lvs_cell_hits;
      Tiles_extracted;
      Tile_steals;
      Seam_merges_h;
      Seam_merges_v;
    ]

  let slug = function
    | Boxes_popped -> "boxes_popped"
    | Expansions -> "expansions"
    | Active_merges -> "active_merges"
    | Uf_finds -> "uf_finds"
    | Uf_unions -> "uf_unions"
    | Net_merges -> "net_merges"
    | Transistors -> "transistors"
    | Solver_iterations -> "solver_iterations"
    | Summary_hits -> "summary_hits"
    | Summary_misses -> "summary_misses"
    | Diags -> "diags"
    | Cache_hits -> "cache_hits"
    | Cache_misses -> "cache_misses"
    | Cache_evictions -> "cache_evictions"
    | Deadline_kills -> "deadline_kills"
    | Overloads -> "overloads"
    | Lvs_reductions -> "lvs_reductions"
    | Lvs_rounds -> "lvs_rounds"
    | Lvs_matches -> "lvs_matches"
    | Lvs_cell_matches -> "lvs_cell_matches"
    | Lvs_cell_hits -> "lvs_cell_hits"
    | Tiles_extracted -> "tiles_extracted"
    | Tile_steals -> "tile_steals"
    | Seam_merges_h -> "seam_merges_h"
    | Seam_merges_v -> "seam_merges_v"

  let describe = function
    | Boxes_popped -> "boxes delivered by the lazy front-end stream"
    | Expansions -> "one-level symbol expansions in the stream"
    | Active_merges -> "insertion merges into scanline active lists"
    | Uf_finds -> "union-find find operations (nets and device classes)"
    | Uf_unions -> "union-find union operations"
    | Net_merges -> "net unions that actually merged two classes"
    | Transistors -> "transistor channels recognized by the engine"
    | Solver_iterations -> "fixpoint solver transfer-function evaluations"
    | Summary_hits -> "hierarchical summary-cache hits"
    | Summary_misses -> "hierarchical summary-cache misses"
    | Diags -> "diagnostics constructed"
    | Cache_hits -> "persistent extraction-cache hits"
    | Cache_misses -> "persistent extraction-cache misses"
    | Cache_evictions -> "persistent extraction-cache entries evicted"
    | Deadline_kills -> "requests cancelled at their deadline"
    | Overloads -> "requests rejected with an overload reply"
    | Lvs_reductions -> "series/parallel device merges during LVS reduction"
    | Lvs_rounds ->
        "LVS colour-refinement rounds over both netlists (the last finds no new colour)"
    | Lvs_matches -> "devices paired across the two LVS netlists"
    | Lvs_cell_matches -> "distinct LVS cell summaries compared"
    | Lvs_cell_hits -> "LVS cell instances served from the summary memo"
    | Tiles_extracted -> "tiles extracted by the sharded scheduler"
    | Tile_steals ->
        "always 0: tiles come from one shared cursor, none is stolen (kept \
         for bench/e2e, which reads it by name)"
    | Seam_merges_h -> "fragment compositions across vertical seams (left|right)"
    | Seam_merges_v -> "fragment compositions across horizontal seams (bottom|top)"
end

(* --- clock --- *)

let now_ns () = Monotonic_clock.now ()

(* Total words ever allocated by this domain; the span exporter reports
   the delta across each span as its allocation cost. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- per-track buffers --- *)

type ekind = Begin | End | Instant

type event = { kind : ekind; ename : string; ts : int64; alloc : float }

let dummy_event = { kind = Instant; ename = ""; ts = 0L; alloc = 0.0 }

type buf = {
  seq : int;  (** creation order, for grouping same-tid bufs *)
  mutable tid : int;
  mutable tname : string;
  counters : int array;
  base : int array;  (** counter snapshot at session start *)
  mutable events : event array;
  mutable n : int;
  mutable dropped : int;
  mutable drop_depth : int;  (** open spans whose Begin was dropped *)
}

(* Cap per track: a runaway span emitter degrades to counting drops
   instead of exhausting memory.  Ends matching a recorded Begin are
   always recorded so the export stays balanced. *)
let max_events = 1 lsl 20

let registry : buf list ref = ref []
let registry_mu = Mutex.create ()
let next_seq = Atomic.make 0

let new_buf ~tid ~tname =
  let b =
    {
      seq = Atomic.fetch_and_add next_seq 1;
      tid;
      tname;
      counters = Array.make Counter.cardinal 0;
      base = Array.make Counter.cardinal 0;
      events = [||];
      n = 0;
      dropped = 0;
      drop_depth = 0;
    }
  in
  Mutex.lock registry_mu;
  registry := b :: !registry;
  Mutex.unlock registry_mu;
  b

let key =
  Domain.DLS.new_key (fun () ->
      let id = (Domain.self () :> int) in
      (* Worker domains' default tracks live far above the explicit
         track range [with_track] users allocate from 1 (shards, stitch),
         so a spawned domain's id can never collide with a shard tid. *)
      ref
        (if id = 0 then new_buf ~tid:0 ~tname:"main"
         else
           new_buf ~tid:(10000 + id) ~tname:(Printf.sprintf "domain %d" id)))

let current () = !(Domain.DLS.get key)

(* --- counters (always on) --- *)

let count c n =
  let b = current () in
  let i = Counter.index c in
  b.counters.(i) <- b.counters.(i) + n

let incr c = count c 1

let bufs_snapshot () =
  Mutex.lock registry_mu;
  let bs = !registry in
  Mutex.unlock registry_mu;
  List.rev bs

let counter_totals () =
  let totals = Array.make Counter.cardinal 0 in
  List.iter
    (fun b ->
      Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) b.counters)
    (bufs_snapshot ());
  List.map (fun c -> (c, totals.(Counter.index c))) Counter.all

let counters_snapshot () = Array.copy (current ()).counters

(* --- recording --- *)

let recording_flag = Atomic.make false
let recording () = Atomic.get recording_flag
let epoch = Atomic.make 0L

let push_event b e =
  match e.kind with
  | Begin when b.n >= max_events ->
      b.drop_depth <- b.drop_depth + 1;
      b.dropped <- b.dropped + 1
  | End when b.drop_depth > 0 ->
      b.drop_depth <- b.drop_depth - 1;
      b.dropped <- b.dropped + 1
  | Instant when b.n >= max_events -> b.dropped <- b.dropped + 1
  | Begin | End | Instant ->
      if b.n = Array.length b.events then begin
        let cap = max 256 (2 * b.n) in
        let a = Array.make cap dummy_event in
        Array.blit b.events 0 a 0 b.n;
        b.events <- a
      end;
      b.events.(b.n) <- e;
      b.n <- b.n + 1

let emit kind ename =
  let b = current () in
  push_event b { kind; ename; ts = now_ns (); alloc = alloc_words () }

let with_span name f =
  if not (Atomic.get recording_flag) then f ()
  else begin
    emit Begin name;
    Fun.protect ~finally:(fun () -> emit End name) f
  end

let instant name = if Atomic.get recording_flag then emit Instant name

(* The primitive [Timing] rides on: always measures wall time with the
   monotonic clock and hands the elapsed seconds to [on_elapsed]; when a
   session is recording it additionally emits the span, from the *same*
   clock samples, so phase timings derived from the trace agree exactly
   with the accumulated ones. *)
let timed name on_elapsed f =
  if Atomic.get recording_flag then begin
    let b = current () in
    let t0 = now_ns () in
    push_event b { kind = Begin; ename = name; ts = t0; alloc = alloc_words () };
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        push_event b { kind = End; ename = name; ts = t1; alloc = alloc_words () };
        on_elapsed (Int64.to_float (Int64.sub t1 t0) /. 1e9))
      f
  end
  else begin
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        on_elapsed (Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9))
      f
  end

(* --- tracks --- *)

let with_track ~tid ~name f =
  let r = Domain.DLS.get key in
  let prev = !r in
  r := new_buf ~tid ~tname:name;
  Fun.protect ~finally:(fun () -> r := prev) f

let current_track () =
  let b = current () in
  (b.tid, b.tname)

(* --- sessions --- *)

type track = {
  t_tid : int;
  t_name : string;
  t_events : event array;
  t_counters : int array;  (** per-session deltas, [Counter.index]ed *)
  t_dropped : int;
}

type session = { tracks : track list; t0 : int64 }

let start () =
  Mutex.lock registry_mu;
  List.iter
    (fun b ->
      b.n <- 0;
      b.events <- [||];
      b.dropped <- 0;
      b.drop_depth <- 0;
      Array.blit b.counters 0 b.base 0 Counter.cardinal)
    !registry;
  Mutex.unlock registry_mu;
  Atomic.set epoch (now_ns ());
  Atomic.set recording_flag true

let stop () =
  Atomic.set recording_flag false;
  let bufs =
    List.sort
      (fun a b ->
        match Int.compare a.tid b.tid with
        | 0 -> Int.compare a.seq b.seq
        | c -> c)
      (bufs_snapshot ())
  in
  (* merge same-tid bufs (a track reopened across [with_track] calls)
     into one exported track, in creation order *)
  let by_ts (a : event) (b : event) = Int64.compare a.ts b.ts in
  let tracks =
    List.fold_left
      (fun acc b ->
        let events = Array.sub b.events 0 b.n in
        let deltas =
          Array.init Counter.cardinal (fun i -> b.counters.(i) - b.base.(i))
        in
        b.events <- [||];
        b.n <- 0;
        match acc with
        | t :: rest when t.t_tid = b.tid ->
            (* A reopened track's events follow the earlier buffer on the
               timeline, but a *nested* reopen (with_track re-entering a
               tid that is still open) interleaves with the outer buffer;
               a stable sort on the timestamps restores timeline order
               either way (it is the identity for the sequential case). *)
            let merged = Array.append t.t_events events in
            Array.stable_sort by_ts merged;
            {
              t with
              t_events = merged;
              t_counters =
                Array.init Counter.cardinal (fun i ->
                    t.t_counters.(i) + deltas.(i));
              t_dropped = t.t_dropped + b.dropped;
            }
            :: rest
        | _ ->
            {
              t_tid = b.tid;
              t_name = b.tname;
              t_events = events;
              t_counters = deltas;
              t_dropped = b.dropped;
            }
            :: acc)
      [] bufs
  in
  let tracks =
    List.filter
      (fun t ->
        Array.length t.t_events > 0
        || Array.exists (fun v -> v <> 0) t.t_counters)
      (List.rev tracks)
  in
  { tracks; t0 = Atomic.get epoch }

let session_counter_totals s =
  let totals = Array.make Counter.cardinal 0 in
  List.iter
    (fun t -> Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) t.t_counters)
    s.tracks;
  List.map (fun c -> (c, totals.(Counter.index c))) Counter.all

let print_counter_table ?(oc = stderr) totals =
  let nonzero = List.filter (fun (_, v) -> v <> 0) totals in
  if nonzero <> [] then begin
    Printf.fprintf oc "counters:\n";
    List.iter
      (fun (c, v) ->
        Printf.fprintf oc "  %-20s %12d  %s\n" (Counter.slug c) v
          (Counter.describe c))
      nonzero
  end
