open Ace_geom
open Ace_tech

(** Hierarchical wirelists — HEXT's output model (paper Figure 2-2).

    A hierarchy is a list of parts in dependency order (leaves first).  Each
    part owns [net_count] local nets (indices [0 .. net_count-1]), a subset
    of which are exported; it contains primitive transistors and instances
    of earlier parts.  An instance binds child nets to parent nets through
    [net_map] — the figure's [(Net P1/N3 N16)] equivalences — and places the
    child at [offset] ([LocOffset]).

    Composite parts store only references to their children (the paper:
    "the resulting new window does not copy the contents of its component
    windows, but simply stores pointers to them"); {!flatten} instantiates
    the whole tree into a flat {!Circuit.t}. *)

type hdevice = {
  dtype : Nmos.device_type;
  gate : int;
  source : int;
  drain : int;
  length : int;
  width : int;
  location : Point.t;
}

type instance = {
  part_name : string;
  inst_name : string;
  offset : Point.t;
  net_map : (int * int) list;  (** (child-local net, parent-local net) *)
}

type part = {
  part_name : string;
  net_count : int;
  exports : int list;
  net_names : (int * string) list;
  devices : hdevice list;
  instances : instance list;
}

type t = { parts : part list; top : string }

exception Error of string

(** Find a part by name; raises {!Error}. *)
val part : t -> string -> part

(** Structural checks: top exists, instances reference earlier parts only,
    net indices in range, net maps bind exported child nets.  Returns
    problems (empty = valid). *)
val validate : t -> string list

(** Total device count of the full expansion (without expanding). *)
val flat_device_count : t -> int

(** Expand the hierarchy into a flat circuit.  Instance offsets accumulate
    into device locations; net names propagate through bindings. *)
val flatten : t -> Circuit.t

(** One record per part activation in the expansion, for consumers that
    need the hierarchy's shape over the flat circuit (the tiled
    extractor's stitch):

    - [act_nets.(l)] is the flat net index of local net [l];
    - [act_leaf] is true when the part has no instances;
    - the activation's own primitive devices are the consecutive flat
      devices from [act_device] on, in the part's device order. *)
type activation = {
  act_part : string;
  act_nets : int array;
  act_leaf : bool;
  act_device : int;
}

(** [flatten_ext t] is {!flatten} plus the activation records of the
    expansion (instantiation order). *)
val flatten_ext : t -> Circuit.t * activation list

(** {1 Indexed access}

    A hierarchy's parts by name, for callers that look parts up once per
    instance or flatten several sub-hierarchies of one hierarchy. *)

type index

(** [index t] indexes [t]'s parts by name; the first definition of a name
    wins, as in {!part}.  It validates nothing. *)
val index : t -> index

(** [find ix name] is {!part} [t name], in constant time. *)
val find : index -> string -> part

(** [flatten_sub ix name] flattens the sub-hierarchy under part [name]:
    the circuit {!flatten} gives for [{ t with top = name }] (named
    [name]), and the flat net of each of that part's local nets.  The
    parts are validated once per index, on the first call; raises
    {!Error} as {!flatten} does. *)
val flatten_sub : index -> string -> Circuit.t * int array

(** Render in the Figure 2-2 dialect. *)
val to_string : t -> string

(** Parse the Figure 2-2 dialect back.  Raises {!Error}. *)
val of_string : string -> t
