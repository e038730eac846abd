(* SARIF 2.1.0 rendering — the CI-grade third renderer next to
   Diag.to_string and Diag.to_json.  One render call produces one complete
   SARIF log with a single run. *)

type rule = {
  id : string;
  summary : string;
  help : string;
  level : string;
}

type result = {
  rule_id : string;
  level : string;
  message : string;
  uri : string option;
  line : int;
  column : int;
  fingerprint : string option;
}

let level_of_severity = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Hint -> "note"

let of_diag ?source ?uri ?fingerprint (d : Diag.t) =
  let line, column =
    match (d.Diag.span, source) with
    | Some { Diag.start; _ }, Some source -> Diag.line_col ~source start
    | _ -> (1, 1)
  in
  {
    rule_id = d.Diag.code;
    level = level_of_severity d.Diag.severity;
    message = d.Diag.message;
    uri;
    line;
    column;
    fingerprint;
  }

let esc = Diag.json_escape

(* tool.driver.rules must describe every ruleId appearing in results;
   ids with no registered metadata get a bare synthesized entry. *)
let complete_rules rules results =
  let known = List.map (fun r -> r.id) rules in
  let extra =
    List.fold_left
      (fun acc (r : result) ->
        if List.mem r.rule_id known || List.mem r.rule_id acc then acc
        else r.rule_id :: acc)
      [] results
    |> List.rev
    |> List.map (fun id -> { id; summary = ""; help = ""; level = "warning" })
  in
  rules @ extra

let render ~tool ?(rules = []) results =
  let rules = complete_rules rules results in
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",";
  add "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{";
  add (Printf.sprintf "\"name\":\"%s\",\"version\":\"0.1\"," (esc tool));
  add "\"informationUri\":\"https://doi.org/10.1145/800667.754923\",";
  add "\"rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      add (Printf.sprintf "{\"id\":\"%s\",\"name\":\"%s\"" (esc r.id)
             (esc r.id));
      if r.summary <> "" then
        add
          (Printf.sprintf ",\"shortDescription\":{\"text\":\"%s\"}"
             (esc r.summary));
      if r.help <> "" then
        add (Printf.sprintf ",\"help\":{\"text\":\"%s\"}" (esc r.help));
      add
        (Printf.sprintf ",\"defaultConfiguration\":{\"level\":\"%s\"}}"
           (esc r.level)))
    rules;
  add "]}},\"results\":[";
  let rule_index id =
    let rec go i = function
      | [] -> -1
      | r :: rest -> if r.id = id then i else go (i + 1) rest
    in
    go 0 rules
  in
  List.iteri
    (fun i (r : result) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "{\"ruleId\":\"%s\",\"ruleIndex\":%d,\"level\":\"%s\","
           (esc r.rule_id) (rule_index r.rule_id) (esc r.level));
      add (Printf.sprintf "\"message\":{\"text\":\"%s\"}," (esc r.message));
      add "\"locations\":[{\"physicalLocation\":{";
      (match r.uri with
      | Some uri ->
          add
            (Printf.sprintf "\"artifactLocation\":{\"uri\":\"%s\"}," (esc uri))
      | None -> ());
      add
        (Printf.sprintf
           "\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]" r.line
           r.column);
      (match r.fingerprint with
      | Some fp ->
          add
            (Printf.sprintf
               ",\"partialFingerprints\":{\"acePrint/v1\":\"%s\"}" (esc fp))
      | None -> ());
      add "}")
    results;
  add "]}]}";
  Buffer.contents buf
