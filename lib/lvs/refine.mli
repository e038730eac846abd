(** The colour-refinement kernel shared by {!Match}, {!Reduce.canonicalize}
    and the hierarchical glue compare in {!Hier}.

    A graph is a set of devices, each with an ordered list of terminals
    (an integer role and a net), stored as compressed sparse rows along
    with their transpose, the per-net incidence rows.  One refinement
    round rehashes every device from its terminal nets (the caller's
    formula) and then every net from the multiset of
    [mix device_colour role] over its incidences ({!refine_nets}).

    Every hash is bit-identical to folding {!mix} from [0x1234567] over
    the ascending list of values and masking with [max_int], so colours
    do not depend on terminal order or on how the multiset is stored.

    Scratch buffers belong to a graph or a {!scratch} value; use one per
    comparison and never share it between threads. *)

val mix : int -> int -> int
(** [mix h x = h * 1000003 + x + 0x9e3779b9], wrapping. *)

val str_code : string -> int
(** Colour of a net name: {!mix} folded over its bytes, non-negative. *)

val type_code : Ace_tech.Nmos.device_type -> int
(** Initial device colour: 3 for enhancement, 4 for depletion. *)

val sort : int array -> int -> int -> unit
(** [sort a lo hi] sorts [a.(lo) .. a.(hi - 1)] ascending in place. *)

val hash_sorted_range : int array -> int -> int -> int
(** [hash_sorted_range a lo hi] sorts the segment in place and hashes it
    as a multiset. *)

val hash_pair : int -> int -> int
(** The multiset hash of two values, without a buffer. *)

type scratch

val scratch : unit -> scratch
(** An empty, growable scratch buffer. *)

val distinct : scratch -> int array -> int
(** Exact number of distinct values in the array (which is not
    modified). *)

type t = private {
  nets : int;
  dev_off : int array;
      (** device [d]'s terminals are [dev_off.(d) .. dev_off.(d + 1) - 1] *)
  term_net : int array;
  term_role : int array;
  net_off : int array;
      (** net [n]'s incidences are [net_off.(n) .. net_off.(n + 1) - 1] *)
  inc_dev : int array;
  inc_role : int array;
  scratch : scratch;
}

val graph : nets:int -> (int * int) list array -> t
(** [graph ~nets terms] is the graph over nets [0 .. nets - 1] whose
    device [d] has the [(role, net)] terminals [terms.(d)], in order. *)

val refine_nets : t -> dev_color:int array -> net_color:int array -> unit
(** The net half of a round, in place: every used net [n] becomes
    [mix net_color.(n) h], where [h] hashes the multiset of
    [mix dev_color.(d) role] over its incidences.  Unused nets keep
    their colour. *)

val hash_terms : t -> int array -> int -> int -> int
(** [hash_terms g net_color lo hi] hashes the multiset of the colours of
    the nets on terminals [lo .. hi - 1]. *)

val hash_role_terms : t -> int array -> int -> int -> int
(** Like {!hash_terms}, with each colour mixed with its terminal's role. *)

val run :
  ?cancel:Ace_core.Cancel.t ->
  t ->
  net_color:int array ->
  dev_color:int array ->
  (int -> int) ->
  int
(** [run g ~net_color ~dev_color step] refines in place until a round
    adds no distinct colour over the used nets and the devices together,
    or more than [nets + devices + 2] rounds have run.  Each round sets
    [dev_color.(k) <- step k] for every device in index order, then runs
    {!refine_nets}; [step k] may read [dev_color.(k)] and any net colour.
    [cancel] is checked once per round.  Returns the number of rounds. *)

val used_net_multiset : t -> int array -> int array
(** The colours of the used nets, sorted. *)
