type setting = Severity of Finding.severity | Off

type t = {
  overrides : (string * setting) list;
  lambda : int;
  max_fanout : int;
  max_pass_depth : int;
}

let default =
  {
    overrides = [];
    lambda = Ace_tech.Nmos.default.Ace_tech.Nmos.lambda;
    max_fanout = 16;
    max_pass_depth = 3;
  }

let setting_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" | "disable" | "disabled" -> Ok Off
  | s -> (
      match Finding.severity_of_string s with
      | Some sev -> Ok (Severity sev)
      | None ->
          Error (Printf.sprintf "unknown level %S (want error|warn|info|off)" s))

let positive_int key v =
  match int_of_string_opt v with
  | Some n when n > 0 -> Ok n
  | Some _ | None ->
      Error (Printf.sprintf "%s wants a positive integer, got %S" key v)

(* One [key=value] binding: either an engine parameter or a rule
   severity override. *)
let set cfg key value =
  match key with
  | "lambda" ->
      Result.map (fun lambda -> { cfg with lambda }) (positive_int key value)
  | "max-fanout" ->
      Result.map
        (fun max_fanout -> { cfg with max_fanout })
        (positive_int key value)
  | "max-pass-depth" ->
      Result.map
        (fun max_pass_depth -> { cfg with max_pass_depth })
        (positive_int key value)
  | code -> (
      match Rules.find code with
      | None -> Error (Printf.sprintf "unknown rule or parameter %S" code)
      | Some _ ->
          Result.map
            (fun s -> { cfg with overrides = (code, s) :: cfg.overrides })
            (setting_of_string value))

let parse_binding cfg spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" spec)
  | Some i ->
      let key = String.trim (String.sub spec 0 i) in
      let value =
        String.trim (String.sub spec (i + 1) (String.length spec - i - 1))
      in
      set cfg key value

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse ?(file = "<rules>") cfg text =
  let lines = String.split_on_char '\n' text in
  let rec go cfg lineno = function
    | [] -> Ok cfg
    | line :: rest -> (
        let line = String.trim (strip_comment line) in
        if line = "" then go cfg (lineno + 1) rest
        else
          match parse_binding cfg line with
          | Ok cfg -> go cfg (lineno + 1) rest
          | Error m -> Error (Printf.sprintf "%s:%d: %s" file lineno m))
  in
  go cfg 1 lines

let severity_for cfg (rule : Rule.t) =
  match List.assoc_opt rule.Rule.code cfg.overrides with
  | Some Off -> None
  | Some (Severity s) -> Some s
  | None -> Some rule.Rule.default
