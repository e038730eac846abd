open Ace_netlist

(** The lint engine: runs every enabled registry rule over a circuit.

    [run] resolves the rails once (exact net-name match, then
    case-insensitive fallback), builds the {!Rule.ctx} from the
    configuration, and concatenates each enabled rule's findings stamped
    with its configured severity, in registry order.

    {!context}'s [flow] argument controls the ternary dataflow analysis
    feeding the flow-* rules: [`Auto] (default) computes it lazily the
    first time an enabled flow rule asks for it; [`Off] disables those
    rules' input entirely. *)

(** [find_rail circuit name] — exact match first, then case-insensitive. *)
val find_rail : Circuit.t -> string -> int option

val context :
  ?config:Config.t ->
  ?vdd:string ->
  ?gnd:string ->
  ?flow:[ `Auto | `Off ] ->
  Circuit.t ->
  Rule.ctx

(** [check config ctx] runs the rules [config] enables over [ctx].  A
    caller that keeps [ctx] can tell from [ctx.flow] whether the rules
    forced the dataflow verdict. *)
val check : Config.t -> Rule.ctx -> Finding.t list

(** [run] is [check] over a fresh {!context} with [flow] left at
    [`Auto]. *)
val run :
  ?config:Config.t -> ?vdd:string -> ?gnd:string -> Circuit.t -> Finding.t list
