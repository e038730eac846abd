(** Lint configuration: rule enablement/severity plus engine parameters.

    Parsed from a simple line-based [key=value] rules file ([#] starts a
    comment) and/or per-rule CLI overrides.  A key is either an engine
    parameter ([lambda], [max-fanout], [max-pass-depth]) or a registered
    rule code bound to a level ([error] / [warn] / [info] / [off]).
    Unknown keys and levels are errors — a typo must not silently disable
    a check.  Later bindings win. *)

type setting = Severity of Finding.severity | Off

type t = {
  overrides : (string * setting) list;  (** newest first *)
  lambda : int;
  max_fanout : int;
  max_pass_depth : int;
}

(** No overrides; λ from {!Ace_tech.Nmos.default}, fan-out limit 16,
    pass-depth limit 3. *)
val default : t

(** Apply one [key=value] binding (e.g. ["ratio=off"], ["lambda=200"]). *)
val parse_binding : t -> string -> (t, string) result

(** Parse a whole rules file; errors carry [file:line:]. *)
val parse : ?file:string -> t -> string -> (t, string) result

(** The severity a rule reports at, or [None] when disabled. *)
val severity_for : t -> Rule.t -> Finding.severity option
