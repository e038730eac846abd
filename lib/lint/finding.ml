open Ace_netlist

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" | "err" -> Some Error
  | "warn" | "warning" -> Some Warning
  | "info" | "note" | "hint" -> Some Info
  | _ -> None

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

type t = {
  code : string;
  severity : severity;
  message : string;
  device : int option;
  net : int option;
}

let summarize findings =
  List.fold_left
    (fun (e, w, i) f ->
      match f.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) findings

(* " (device D3) (net OUT)" — the location suffix shared by the text
   renderer and the Diag conversion. *)
let context circuit f =
  let buf = Buffer.create 16 in
  (match f.device with
  | Some d -> Buffer.add_string buf (Printf.sprintf " (device D%d)" d)
  | None -> ());
  (match f.net with
  | Some n ->
      Buffer.add_string buf
        (Printf.sprintf " (net %s)" (Circuit.net_display_name circuit n))
  | None -> ());
  Buffer.contents buf

let to_string circuit f =
  Printf.sprintf "%s[%s]: %s%s"
    (severity_to_string f.severity)
    f.code f.message (context circuit f)

let to_diag circuit f =
  let severity =
    match f.severity with
    | Error -> Ace_diag.Diag.Error
    | Warning -> Ace_diag.Diag.Warning
    | Info -> Ace_diag.Diag.Hint
  in
  Ace_diag.Diag.make severity ~code:f.code (f.message ^ context circuit f)

(* Fingerprints identify a finding by rule code plus the *physical*
   identity of the flagged device/net — type and layout location for
   devices, user name (or location) for nets — rather than by array
   index or message text, so they survive re-extraction, renumbering and
   message-wording changes. *)
let fingerprint circuit f =
  let device_key =
    match f.device with
    | None -> "-"
    | Some i ->
        let d = circuit.Circuit.devices.(i) in
        Printf.sprintf "%s@%d,%d"
          (Ace_tech.Nmos.device_type_name d.dtype)
          d.location.Ace_geom.Point.x d.location.Ace_geom.Point.y
  in
  let net_key =
    match f.net with
    | None -> "-"
    | Some n -> (
        match circuit.Circuit.nets.(n).names with
        | name :: _ -> name
        | [] ->
            let p = circuit.Circuit.nets.(n).location in
            Printf.sprintf "@%d,%d" p.Ace_geom.Point.x p.Ace_geom.Point.y)
  in
  Ace_diag.Fnv.hex64 (String.concat "|" [ f.code; device_key; net_key ])
