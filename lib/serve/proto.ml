module Json = Ace_trace.Json

let err_bad_request = "bad-request"
let err_too_large = "request-too-large"
let err_deadline = "deadline-exceeded"
let err_overloaded = "overloaded"
let err_internal = "internal-error"

(* Replies carry multi-megabyte wirelists, so rendering copies each byte
   once per nesting level: [str] builds its literal at its exact size,
   and [arr]/[obj] are a single [String.concat] over a flat list of
   parts. *)
let str = Ace_diag.Diag.json_quote

let int = string_of_int
let bool = string_of_bool

let arr xs =
  let[@tail_mod_cons] rec rest = function
    | [] -> [ "]" ]
    | x :: xs -> "," :: x :: rest xs
  in
  String.concat ""
    (match xs with [] -> [ "[]" ] | x :: xs -> "[" :: x :: rest xs)

let obj fields =
  let[@tail_mod_cons] rec rest = function
    | [] -> [ "}" ]
    | (k, v) :: fs -> "," :: str k :: ":" :: v :: rest fs
  in
  String.concat ""
    (match fields with
    | [] -> [ "{}" ]
    | (k, v) :: fs -> "{" :: str k :: ":" :: v :: rest fs)

let rec render = function
  | Json.Null -> "null"
  | Json.Bool b -> bool b
  | Json.Str s -> str s
  | Json.Num f ->
      (* The reader parses every number as a float; render integral values
         without a decimal point so small ids round-trip unchanged. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | Json.Arr xs -> arr (List.map render xs)
  | Json.Obj kvs -> obj (List.map (fun (k, v) -> (k, render v)) kvs)

type request = {
  id : Json.t;
  op : string;
  cif : string option;
  name : string;
  jobs : int option;
  tile : (int * int) option;
  deadline_ms : int option;
  use_cache : bool;
  vdd : string option;
  gnd : string option;
  reference : string option;
  hier : bool;
  ref_format : string option;
  max_findings : int option;
}

let field_string j k =
  match Json.member k j with
  | Some (Json.Str s) -> Ok (Some s)
  | None | Some Json.Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)

let field_int j k =
  match Json.member k j with
  | Some (Json.Num f) when Float.is_integer f && Float.abs f < 1e9 ->
      Ok (Some (int_of_float f))
  | None | Some Json.Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)

let field_bool j k =
  match Json.member k j with
  | Some (Json.Bool b) -> Ok (Some b)
  | None | Some Json.Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" k)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let parse line =
  match Json.parse line with
  | Error msg -> Error (err_bad_request, "invalid JSON: " ^ msg)
  | Ok (Json.Obj _ as j) -> (
      let id = Option.value (Json.member "id" j) ~default:Json.Null in
      let build =
        let* op = field_string j "op" in
        let* cif = field_string j "cif" in
        let* name = field_string j "name" in
        let* jobs = field_int j "jobs" in
        let* tile =
          let* s = field_string j "tile" in
          match s with
          | None -> Ok None
          | Some s -> (
              match Ace_core.Parallel.tile_of_string s with
              | Ok g -> Ok (Some g)
              | Error e -> Error e)
        in
        let* deadline_ms = field_int j "deadline_ms" in
        let* use_cache = field_bool j "cache" in
        let* vdd = field_string j "vdd" in
        let* gnd = field_string j "gnd" in
        let* reference = field_string j "ref" in
        let* hier = field_bool j "hier" in
        let* ref_format = field_string j "ref_format" in
        let* max_findings = field_int j "max_findings" in
        match op with
        | None -> Error "missing field \"op\""
        | Some op ->
            Ok
              {
                id;
                op;
                cif;
                name = Option.value name ~default:"chip";
                jobs;
                tile;
                deadline_ms;
                use_cache = Option.value use_cache ~default:true;
                vdd;
                gnd;
                reference;
                hier = Option.value hier ~default:false;
                ref_format;
                max_findings;
              }
      in
      match build with
      | Ok r -> Ok r
      | Error msg -> Error (err_bad_request, msg))
  | Ok _ -> Error (err_bad_request, "request must be a JSON object")

let ok ~id ~op fields =
  obj (("id", render id) :: ("ok", "true") :: ("op", str op) :: fields)

let error ~id ~code ?(extra = []) message =
  obj
    [
      ("id", render id);
      ("ok", "false");
      ("error", obj (("code", str code) :: ("message", str message) :: extra));
    ]
