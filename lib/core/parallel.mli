open Ace_geom
open Ace_netlist

(** Domain-parallel tiled extraction.

    The chip's bounding box is partitioned into a [cols] x [rows] grid
    of tiles; each tile runs the ordinary scanline engine in window mode
    over its own lazy front-end stream clipped to the tile
    ({!Engine.source_clipped}) — so no domain ever materializes the
    chip, and peak memory per domain stays proportional to its tile's
    scanline population.  Tiles are scheduled over [jobs] worker domains
    by per-domain Chase–Lev work-stealing deques: each worker starts
    with a contiguous block of tiles and an idle worker steals half of a
    victim's visible tiles.  The per-tile results become HEXT fragments
    ({!Fragment.leaf_of_raw}) and are stitched with {!Fragment.compose}
    — exactly the seam logic the hierarchical extractor uses — along
    both axes: each column composes bottom-to-top, then the columns
    compose left-to-right.  A final canonicalization pass rebuilds the
    flat extractor's net numbering from the engine's intrinsic creation
    keys ({!Engine.raw.net_x} / [net_y] / [net_phase]) and re-sorts
    devices with the flat comparator, so the output is {e
    byte-identical} to {!Extractor.extract} for every grid, worker
    count, and steal schedule (see DESIGN.md, "Work-stealing
    determinism").

    With no geometry or a grid that degenerates to a single tile, this
    falls back to {!Extractor.extract_with_stats} — a [-j 1] run without
    [--tile] {e is} the flat extractor. *)

(** Per-tile telemetry. *)
type shard = {
  s_window : Box.t;  (** the tile, chip coordinates *)
  s_boxes : int;  (** boxes the tile's stream popped, each overlapping the tile *)
  s_stops : int;  (** scanline stops *)
  s_max_active : int;  (** peak scanline population *)
  s_seconds : float;
      (** wall time of the whole tile (stream + scan + fold-down) *)
  s_fold_seconds : float;
      (** of which the fold-down: the engine result turned into a
          fragment, creation keys and resizes *)
  s_timing : Timing.t;  (** per-phase split of the tile's engine run *)
  s_devices : int;  (** transistors completed inside the tile *)
  s_partials : int;  (** partial transistors open at the tile boundary *)
  s_counters : int array;
      (** the tile's own {!Ace_trace.Trace.Counter} contributions,
          [Counter.index]-indexed (its trace track starts at zero) *)
}

type stats = {
  jobs : int;  (** worker domains used (≤ requested [jobs], ≤ tiles) *)
  shards : shard list;
      (** per tile, column-major — left-to-right, bottom-to-top within a
          column; empty for a flat fallback run *)
  stitch_seconds : float;  (** the whole stitch, after the join *)
  compose_seconds : float;  (** of which composing the tiles *)
  flatten_seconds : float;  (** flattening and re-sizing seam devices *)
  order_seconds : float;  (** the flat extractor's net and device order *)
  boxes : int;  (** the design's flat box count (the papers' N) *)
  stops : int;  (** total stops over all tiles *)
  max_active : int;  (** max over tiles *)
  warnings : Ace_diag.Diag.t list;
}

(** Slowest shard over the mean shard time: 1.0 = perfectly balanced. *)
val balance : stats -> float

(** The stats of a flat run: one job, no shards, no stitch. *)
val stats_of_flat : Extractor.stats -> stats

(** [tile_windows ~cols ~rows bb] partitions [bb] into a grid of
    near-equal tiles, indexed [column].(row) — columns left to right,
    rows bottom to top.  Width remainder spreads over the leftmost
    columns, height remainder over the bottom rows.  Clamped: at most
    one column per x unit and one row per y unit, at least one of each;
    tiles are adjacent and cover the box exactly. *)
val tile_windows : cols:int -> rows:int -> Box.t -> Box.t array array

(** Parse a "COLSxROWS" grid spec (e.g. ["4x2"]), both ≥ 1. *)
val tile_of_string : string -> (int * int, string) result

(** [extract_with_stats ?jobs ?tile ?name design]:

    [tile] gives the grid explicitly as [(cols, rows)]; default is
    [(jobs, 1)] — classic vertical strips.  A multi-tile grid engages
    the tiled path even at [jobs = 1], where every tile runs in order on
    the calling domain with no steals: the same tile and stitch code,
    and the same output, without spawning a domain.

    [cancel] is threaded into every tile's engine run and checked in the
    scheduler's steal loop; a deadline trip raises {!Cancel.Cancelled}
    out of this call.  [on_shard] is invoked with the tile index at the
    start of each tile's work, on whichever domain runs it (fault
    injection and tests hook it; default no-op).

    If any tile's work raises — including [on_shard], and including on a
    spawned domain — every sibling domain is still joined before the
    exception propagates, so no domain is leaked and the calling process
    stays consistent; the lowest-indexed tile's exception wins, with its
    original backtrace. *)
val extract_with_stats :
  ?cancel:Cancel.t ->
  ?on_shard:(int -> unit) ->
  ?jobs:int ->
  ?tile:int * int ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t * stats

val extract :
  ?cancel:Cancel.t ->
  ?on_shard:(int -> unit) ->
  ?jobs:int ->
  ?tile:int * int ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t
