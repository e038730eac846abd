open Ace_geom
open Ace_tech

(** ACE's lazy front-end: sorted top-to-bottom geometry without full
    instantiation.

    A max-heap holds pending items keyed by top-edge y: concrete boxes use
    their exact top; symbol instances use their (conservative) transformed
    bounding-box top.  Popping an instance expands it {e one level} and
    pushes its children back — the paper's "recursively expands only those
    cells that intersect the current scanline", which keeps resident state
    proportional to the scanline population rather than to N. *)

type t

(** [create ?window ?top design] builds the stream.  With [window],
    geometry with no positive-area overlap is never pushed and instances
    whose conservative bounding boxes miss the window are never expanded —
    the sharded extractor uses this so each shard's front-end cost is
    proportional to its strip, not to the chip.  The filter is exactly as
    strict as [Box.clip]: anything dropped would have clipped to nothing.
    [top] is [Design.top_ints design], which a caller opening several
    streams on the design (one per tile) computes once and shares; the
    stream only reads it.  Without it the stream computes its own. *)
val create : ?window:Box.t -> ?top:Ibuf.t * Ibuf.t -> Design.t -> t

(** y of the next scanline stop at which new geometry appears; [None] when
    the stream is exhausted.  Forces just enough expansion to make the
    answer exact. *)
val peek_top : t -> int option

(** [pop_at t y] returns every primitive box whose top edge is exactly [y],
    expanding instances as needed.  Must be called with [y = peek_top t].
    Boxes sharing the top [y] come back in insertion (FIFO) order — the
    heap breaks priority ties by sequence number, so the result is a pure
    function of the design, never of heap shape. *)
val pop_at : t -> int -> (Layer.t * Box.t) list

(** Convenience: drain the whole stream, checking descending-top order. *)
val drain : t -> (Layer.t * Box.t) list

(** Number of items (boxes and unexpanded instances) currently resident in
    the heap — the front-end's memory footprint.  Never negative: popping
    an empty heap raises [Invalid_argument] instead of underflowing.
    Exposed for the streaming-boundedness tests and telemetry. *)
val pending : t -> int

(** All labels of the design, sorted by decreasing y; collected on the
    first call. *)
val labels : t -> Design.label list

(** Number of one-level expansions performed so far (front-end work
    metric). *)
val expansions : t -> int

(** Number of boxes {!pop_at} has returned so far.  A drained stream
    without a window has popped every box of the design, as many as
    [Design.count_boxes] counts, without a second walk of the hierarchy.
    Streams on a grid of windows pop a box that straddles several
    windows once in each. *)
val boxes_popped : t -> int
