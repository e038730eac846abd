(** Structured diagnostics for the CIF front-end.

    A diagnostic carries a severity, a stable machine-readable code (e.g.
    ["cif-expected-semi"], ["sem-undefined-symbol"]), an optional byte span
    into the source text, and a human message.  Spans are resolved to
    line/column lazily, against whatever source string the renderer is
    given, so diagnostics stay cheap to create and independent of any
    particular file. *)

type severity = Error | Warning | Hint

(** Half-open byte range [\[start, stop)] into the source text. *)
type span = { start : int; stop : int }

type t = {
  severity : severity;
  code : string;  (** stable identifier, kebab-case, never localized *)
  span : span option;
  message : string;
}

val make : ?span:span -> severity -> code:string -> string -> t
val error : ?span:span -> code:string -> string -> t
val warning : ?span:span -> code:string -> string -> t
val hint : ?span:span -> code:string -> string -> t

(** [errorf ~code fmt …] — printf-style constructors. *)
val errorf :
  ?span:span -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val warningf :
  ?span:span -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val severity_to_string : severity -> string

(** Severity ordering: [Error > Warning > Hint]. *)
val compare_severity : severity -> severity -> int

val is_error : t -> bool

(** [max_severity diags] is [None] on an empty list. *)
val max_severity : t list -> severity option

(** [line_col ~source pos] is the 1-based (line, column) of byte [pos]. *)
val line_col : source:string -> int -> int * int

(** Human rendering: ["error[code] at line L, column C: message"], followed
    by the offending source line with a caret when [source] is given. *)
val to_string : ?source:string -> t -> string

(** One-line JSON object: severity, code, message, byte span, and — when
    [source] is given — resolved 1-based line/column. *)
val to_json : ?source:string -> t -> string

(** Escape a string for inclusion in a JSON string literal (shared by the
    JSON and SARIF renderers). *)
val json_escape : string -> string

(** [json_escape_into buf s] appends [json_escape s] to [buf] without an
    intermediate string. *)
val json_escape_into : Buffer.t -> string -> unit

(** [json_quote s = "\"" ^ json_escape s ^ "\""], built at its exact
    size: a JSON string literal for [s], copied once. *)
val json_quote : string -> string
