(** SARIF 2.1.0 output — the machine-readable reporting format GitHub CI
    ingests for inline annotations.

    One {!render} call produces one complete SARIF log (a single run):
    [tool.driver] carries the rule registry metadata, each result carries
    [ruleId], [level], a message, a physical location (artifact URI plus
    1-based line/column region) and, when given, a stable fingerprint under
    [partialFingerprints."acePrint/v1"]. *)

(** Registry metadata for [tool.driver.rules]. *)
type rule = {
  id : string;
  summary : string;  (** [shortDescription.text]; omitted when empty *)
  help : string;  (** [help.text]; omitted when empty *)
  level : string;  (** [defaultConfiguration.level] *)
}

type result = {
  rule_id : string;
  level : string;  (** "error" / "warning" / "note" *)
  message : string;
  uri : string option;  (** artifact the finding is located in *)
  line : int;  (** 1-based *)
  column : int;  (** 1-based *)
  fingerprint : string option;
}

(** Build a result from a diagnostic: line/column resolved from the span
    against [source] when both are available (else 1:1). *)
val of_diag :
  ?source:string -> ?uri:string -> ?fingerprint:string -> Diag.t -> result

(** Render a complete SARIF 2.1.0 log.  Rule ids appearing in results but
    not in [rules] get synthesized bare entries so [ruleIndex] always
    resolves. *)
val render : tool:string -> ?rules:rule list -> result list -> string
