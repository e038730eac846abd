(** Low-overhead structured tracing: nestable spans on per-domain tracks,
    always-on named counters, and session snapshots consumed by the
    {!Chrome} exporter and the compact text tree.

    Counters are always live (plain int-array increments on the calling
    domain's own buffer).  Span recording is off by default; with it off,
    {!with_span} costs one atomic load and allocates nothing. *)

module Counter : sig
  type t =
    | Boxes_popped  (** boxes delivered by the lazy front-end stream *)
    | Expansions  (** one-level symbol expansions in the stream *)
    | Active_merges  (** insertion merges into scanline active lists *)
    | Uf_finds  (** union-find find operations *)
    | Uf_unions  (** union-find union operations *)
    | Net_merges  (** net unions that actually merged two classes *)
    | Transistors  (** transistor channels recognized by the engine *)
    | Solver_iterations  (** fixpoint transfer-function evaluations *)
    | Diags  (** diagnostics constructed *)
    | Cache_hits  (** persistent extraction-cache hits *)
    | Cache_misses  (** persistent extraction-cache misses *)
    | Cache_evictions  (** persistent extraction-cache entries evicted *)
    | Deadline_kills  (** requests cancelled at their deadline *)
    | Overloads  (** requests rejected with an overload reply *)
    | Lvs_reductions  (** series/parallel device merges during LVS reduction *)
    | Lvs_rounds  (** LVS partition-refinement rounds *)
    | Lvs_matches  (** devices paired across the two LVS netlists *)
    | Lvs_cell_matches  (** distinct LVS cell summaries compared *)
    | Lvs_cell_hits  (** LVS cell instances served from the summary memo *)
    | Tiles_extracted  (** tiles extracted by the sharded scheduler *)
    | Tile_steals
        (** always 0: nothing increments it since tiles come from one
            shared cursor; kept because [bench/e2e] reads it by name *)
    | Seam_merges_h  (** fragment compositions across vertical seams *)
    | Seam_merges_v  (** fragment compositions across horizontal seams *)

  val cardinal : int
  val index : t -> int
  val all : t list
  val slug : t -> string
  val describe : t -> string
end

(** {1 Clock} *)

val now_ns : unit -> int64
(** The monotonic clock every span timestamp uses, in nanoseconds.
    Unaffected by wall-clock steps; only differences are meaningful.
    Exposed so shard telemetry and request deadlines share the same
    timebase as the trace. *)

(** {1 Counters (always on)} *)

val count : Counter.t -> int -> unit
val incr : Counter.t -> unit

val counter_totals : unit -> (Counter.t * int) list
(** Lifetime totals summed over every track of every domain. *)

val counters_snapshot : unit -> int array
(** Copy of the calling domain's current track counters,
    [Counter.index]-indexed.  Inside {!with_track} the track starts at
    zero, so this is the per-track (per-shard) contribution. *)

(** {1 Spans} *)

val recording : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a named span when a session is recording;
    otherwise just runs it.  The span is closed on exceptions. *)

val instant : string -> unit

val timed : string -> (float -> unit) -> (unit -> 'a) -> 'a
(** [timed name on_elapsed f] always measures [f]'s wall time with the
    monotonic clock and passes the elapsed seconds to [on_elapsed]
    (even on exceptions); when recording it additionally emits the span
    from the same clock samples, so timings derived from the trace agree
    exactly with the accumulated ones.  [Timing.charge] rides on this. *)

val with_track : tid:int -> name:string -> (unit -> 'a) -> 'a
(** Runs the thunk with the calling domain's events and counters routed to
    a fresh track with the given Chrome tid and thread name; the previous
    track is restored afterwards (also on exceptions). *)

val current_track : unit -> int * string

(** {1 Sessions} *)

type ekind = Begin | End | Instant

type event = { kind : ekind; ename : string; ts : int64; alloc : float }
(** [ts] is monotonic nanoseconds; [alloc] is the domain's cumulative
    allocated words at the event boundary. *)

type track = {
  t_tid : int;
  t_name : string;
  t_events : event array;
  t_counters : int array;  (** per-session deltas, [Counter.index]ed *)
  t_dropped : int;
}

type session = { tracks : track list; t0 : int64 }

val start : unit -> unit
(** Clears every track's events, snapshots counters, starts recording. *)

val stop : unit -> session
(** Stops recording and snapshots all tracks (sorted by tid; same-tid
    buffers merged in creation order; empty tracks elided). *)

val session_counter_totals : session -> (Counter.t * int) list

(** {1 Rendering} *)

val print_counter_table : ?oc:out_channel -> (Counter.t * int) list -> unit
(** Prints the non-zero counters with their glossary lines (the `-s`
    table).  Prints nothing when all counters are zero. *)
