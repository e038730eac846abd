open Ace_netlist

(** The built-in electrical rule registry.

    ACE §1's static checker (ratio, malformed-transistor and stuck-signal
    checks) as registry rules, plus the pass-network, fan-out, sneak-path,
    superbuffer, labelling and λ-grid analyses.  Every rule has a stable
    kebab-case code; severities and enablement are decided by {!Config},
    not here. *)

(** Channel-graph reachability from seed nets (source/drain edges conduct,
    gates do not).  Nets in [stop] are marked when touched but never
    expanded — a power rail is a fixed potential, not a conductor to pass
    through, so rail-origin searches stop at the opposite rail.  Exposed
    for reuse by downstream analyses. *)
val reachable : ?stop:int list -> Circuit.t -> int list -> bool array

(** All registered rules, in reporting order. *)
val all : Rule.t list

val find : string -> Rule.t option
