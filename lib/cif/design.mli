open Ace_geom
open Ace_tech

(** Semantically-checked CIF designs.

    Wraps a parsed {!Ast.file} with a symbol table and validates it:
    duplicate or missing symbol definitions, recursive call chains, unknown
    layer names and non-manhattan call rotations are all reported.  Also
    computes memoized per-symbol bounding boxes and flattened box counts —
    the statistics the papers' tables are keyed on — without ever
    instantiating the full chip. *)

exception Semantic_error of string

(** A net label, resolved to chip coordinates. *)
type label = { name : string; position : Point.t; layer : Layer.t option }

type t

(** [of_ast ?quantum ast] validates and wraps a parsed file.  [quantum] is
    the strip height for non-manhattan approximation (default λ/2 = 125
    centimicrons).  Raises {!Semantic_error}, also for coordinates outside
    the supported range (±2{^30}), which later arithmetic could not
    represent. *)
val of_ast : ?quantum:int -> Ast.file -> t

(** [of_ast_lenient ast] never raises: every semantic problem — duplicate
    definitions, unknown layers, undefined or recursive symbol calls,
    unsupported rotations, zero/negative-extent boxes, out-of-range
    coordinates — is recorded as a diagnostic and only the offending
    elements are dropped, so the rest of the design stays extractable.
    On a clean input the design is identical to {!of_ast} and the list is
    empty.  Problems {!of_ast} would reject are [Error] severity; purely
    defensive drops (degenerate boxes, coordinate-overflow guards) are
    [Warning]s.  Out-of-range coordinates are the one overlap: {!of_ast}
    rejects them, and here they stay a [sem-coordinate-overflow]
    warning. *)
val of_ast_lenient :
  ?quantum:int -> ?max_errors:int -> Ast.file -> t * Ace_diag.Diag.t list

val ast : t -> Ast.file
val quantum : t -> int

(** [symbol t id] raises [Not_found] for undefined ids. *)
val symbol : t -> int -> Ast.symbol_def

val symbol_ids : t -> int list

(** Conservative bounding box of a symbol's full expansion; [None] when the
    symbol contains no geometry. *)
val symbol_bbox : t -> int -> Box.t option

(** Bounding box of the whole chip (top-level elements). *)
val bbox : t -> Box.t option

(** Number of primitive boxes the fully-instantiated chip decomposes into —
    the "N" of the papers' tables.  Computed from memoized per-symbol counts
    in time proportional to the hierarchy, not to N. *)
val count_boxes : t -> int

(** [add_ints t ~scratch ~boxes ~calls elements] appends the expansion
    of [elements] (one symbol's, or the top level's) flattened to ints, in
    element order: five ints per box to [boxes] (layer index, l, b, r, t,
    in the elements' own coordinates), and [1 + Transform.ints + 4] ints
    per call of a defined, non-empty symbol to [calls] (callee, call
    transform, callee bounding box l b r t).  [scratch] holds one shape's
    decomposition at a time.  Reads the bounding-box memo, so it writes
    the memo the first time a callee is met. *)
val add_ints :
  t -> scratch:Ibuf.t -> boxes:Ibuf.t -> calls:Ibuf.t -> Ast.element list -> unit

(** The top level's {!add_ints} as (boxes, calls), in buffers of exactly
    that length, computed afresh on each call.  Reads the bounding-box
    memo, so a caller that shares the result across domains computes it
    before the spawn. *)
val top_ints : t -> Ibuf.t * Ibuf.t

(** Number of symbol instantiations in the full expansion. *)
val count_instances : t -> int

(** Transform of a call-operation list.  Non-manhattan rotations are snapped
    to the nearest axis (the papers' extractor only handles manhattan
    orientations); exact 45° raises {!Semantic_error}. *)
val transform_of_ops : Ast.transform_op list -> Transform.t

(** All labels in the design, fully instantiated and transformed, sorted by
    decreasing y. *)
val labels : t -> label list

(** [resolve_layer t name] maps a CIF layer name; unknown names were already
    rejected by [of_ast], so this never fails on shapes from [t]. *)
val resolve_layer : string -> Layer.t option
