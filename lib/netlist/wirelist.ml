open Ace_geom
open Ace_tech

exception Error of string

let fail fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

module Geometry_text = struct
  let layer_name = function
    | None -> "NX"
    | Some lyr -> Layer.to_cif_name lyr

  let to_string boxes =
    let buf = Buffer.create 128 in
    Buffer.add_string buf " ";
    List.iter
      (fun (lyr, (bx : Box.t)) ->
        let c = Box.center bx in
        Printf.bprintf buf "L %s; B L%d W%d C%d %d; " (layer_name lyr)
          (Box.width bx) (Box.height bx) c.Point.x c.Point.y)
      boxes;
    Buffer.contents buf

  (* Tokenize on blanks and ';', honoring the L/W/C prefixes of the
     figures' dialect. *)
  let of_string text =
    let commands =
      String.split_on_char ';' text
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let current_layer = ref None in
    let strip_prefix p s =
      if String.length s > 0 && s.[0] = p then
        String.sub s 1 (String.length s - 1)
      else s
    in
    List.filter_map
      (fun cmd ->
        let words =
          String.split_on_char ' ' cmd |> List.filter (fun s -> s <> "")
        in
        match words with
        | [ "L"; name ] ->
            current_layer :=
              Some (if name = "NX" then None else Layer.of_cif_name name);
            None
        | "B" :: rest -> (
            match rest with
            | [ lw; ww; cx; cy ] ->
                let parse_int what s =
                  match int_of_string_opt s with
                  | Some n -> n
                  | None -> fail "bad %s %S in geometry" what s
                in
                let w = parse_int "length" (strip_prefix 'L' lw) in
                let h = parse_int "width" (strip_prefix 'W' ww) in
                let x = parse_int "center x" (strip_prefix 'C' cx) in
                let y = parse_int "center y" cy in
                let layer =
                  match !current_layer with
                  | None -> fail "geometry box before any L command"
                  | Some (Some lyr) -> Some lyr
                  | Some None -> None
                in
                Some (layer, Box.of_center_size ~cx:x ~cy:y ~w ~h)
            | _ -> fail "malformed B command in geometry: %S" cmd)
        | _ -> fail "unknown geometry command %S" cmd)
      commands
end

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* Decimal digits appended straight into the buffer: no format string
   interpreted and no string allocated per number. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* Render [c] into [buf], calling [flush] after every record (a device,
   a net, a stretch of the Local list) so a caller can stream the text
   out through a bounded buffer. *)
let write ~emit_geometry ~flush buf (c : Circuit.t) =
  let str s = Buffer.add_string buf s and int n = add_int buf n in
  let net i =
    Buffer.add_char buf 'N';
    add_int buf i
  in
  Printf.bprintf buf "(DefPart %S\n" c.name;
  str "(DefPart nEnh (Export Source Gate Drain))\n";
  str "(DefPart nDep (Export Source Gate Drain))\n";
  Array.iteri
    (fun i (d : Circuit.device) ->
      str "(Part ";
      str (Nmos.device_type_name d.dtype);
      str " (InstName D";
      int i;
      str ") (Location ";
      int d.location.Point.x;
      str " ";
      int d.location.Point.y;
      str ")\n (T Gate ";
      net d.gate;
      str ") (T Source ";
      net d.source;
      str ") (T Drain ";
      net d.drain;
      str ")\n (Channel (Length ";
      int d.length;
      str ") (Width ";
      int d.width;
      str ")";
      if emit_geometry && d.geometry <> [] then begin
        str "\n  ( CIF \"";
        str
          (Geometry_text.to_string
             (List.map (fun (_, bx) -> (None, bx)) d.geometry));
        str "\")"
      end;
      str "))\n";
      flush ())
    c.devices;
  Array.iteri
    (fun i (n : Circuit.net) ->
      str "(Net ";
      net i;
      List.iter
        (fun name ->
          str " ";
          str name)
        n.names;
      str " (Location ";
      int n.location.Point.x;
      str " ";
      int n.location.Point.y;
      str ")";
      if emit_geometry && n.geometry <> [] then begin
        str "\n ( CIF \"";
        str
          (Geometry_text.to_string
             (List.map (fun (lyr, bx) -> (Some lyr, bx)) n.geometry));
        str "\")"
      end;
      str ")\n";
      flush ())
    c.nets;
  str "(Local";
  Array.iteri
    (fun i _ ->
      str " ";
      net i;
      flush ())
    c.nets;
  str "))\n"

(* Stream through one buffer of about [chunk] bytes: whenever a record
   leaves it past the threshold, its contents go to the channel. *)
let chunk = 65536

(* The same chunks, joined once at the end: a doubling buffer would leave
   about three times the text behind as garbage. *)
let to_string ?(emit_geometry = false) c =
  let buf = Buffer.create (2 * chunk) in
  let chunks = ref [] in
  let flush () =
    if Buffer.length buf >= chunk then begin
      chunks := Buffer.contents buf :: !chunks;
      Buffer.clear buf
    end
  in
  write ~emit_geometry ~flush buf c;
  String.concat "" (List.rev (Buffer.contents buf :: !chunks))

let to_channel ?(emit_geometry = false) oc c =
  let buf = Buffer.create (2 * chunk) in
  let flush () =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  write ~emit_geometry ~flush buf c;
  Buffer.output_buffer oc buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let parse_net_index atom =
  if String.length atom >= 2 && atom.[0] = 'N' then
    match int_of_string_opt (String.sub atom 1 (String.length atom - 1)) with
    | Some n -> n
    | None -> fail "bad net id %S" atom
  else fail "bad net id %S" atom

let atom = function
  | Sexp.Atom a -> a
  | s -> fail "expected an atom, got %s" (Sexp.to_string s)

let int_atom s =
  match int_of_string_opt (atom s) with
  | Some n -> n
  | None -> fail "expected an integer, got %s" (Sexp.to_string s)

let find_clause name items =
  List.find_map
    (function
      | Sexp.List (Sexp.Atom head :: rest) when head = name -> Some rest
      | _ -> None)
    items

let location_of items =
  match find_clause "Location" items with
  | Some [ x; y ] -> Point.make (int_atom x) (int_atom y)
  | Some _ -> fail "malformed Location clause"
  | None -> Point.origin

let cif_geometry_of items =
  (* ( CIF "..." ) — CIF appears as an atom inside a list *)
  List.find_map
    (function
      | Sexp.List [ Sexp.Atom "CIF"; Sexp.Str text ] ->
          Some (Geometry_text.of_string text)
      | _ -> None)
    items

let terminal_bindings items =
  List.filter_map
    (function
      | Sexp.List [ Sexp.Atom "T"; Sexp.Atom role; Sexp.Atom net ] ->
          Some (role, parse_net_index net)
      | _ -> None)
    items

type pre_device = {
  pd_type : Nmos.device_type;
  pd_gate : int;
  pd_source : int;
  pd_drain : int;
  pd_length : int;
  pd_width : int;
  pd_location : Point.t;
  pd_geometry : (Layer.t option * Box.t) list;
}

type pre_net = {
  pn_id : int;
  pn_names : string list;
  pn_location : Point.t;
  pn_geometry : (Layer.t option * Box.t) list;
}

let parse_part items =
  match items with
  | Sexp.Atom type_name :: rest ->
      let pd_type =
        match type_name with
        | "nEnh" -> Nmos.Enhancement
        | "nDep" -> Nmos.Depletion
        | other -> fail "unknown part type %S" other
      in
      let terminals = terminal_bindings rest in
      let terminal role =
        match List.assoc_opt role terminals with
        | Some n -> n
        | None -> fail "part missing terminal %s" role
      in
      let channel =
        match find_clause "Channel" rest with
        | Some c -> c
        | None -> fail "part missing Channel clause"
      in
      let dim name =
        match find_clause name channel with
        | Some [ v ] -> int_atom v
        | Some _ | None -> fail "channel missing %s" name
      in
      {
        pd_type;
        pd_gate = terminal "Gate";
        pd_source = terminal "Source";
        pd_drain = terminal "Drain";
        pd_length = dim "Length";
        pd_width = dim "Width";
        pd_location = location_of rest;
        pd_geometry = Option.value ~default:[] (cif_geometry_of channel);
      }
  | _ -> fail "malformed Part"

let parse_net items =
  match items with
  | Sexp.Atom id :: rest ->
      let pn_id = parse_net_index id in
      let names =
        let rec take = function
          | Sexp.Atom name :: more -> name :: take more
          | _ -> []
        in
        take rest
      in
      {
        pn_id;
        pn_names = names;
        pn_location = location_of rest;
        pn_geometry = Option.value ~default:[] (cif_geometry_of rest);
      }
  | _ -> fail "malformed Net"

let of_string text =
  let sexps =
    try Sexp.parse_string text
    with Sexp.Parse_error m -> fail "s-expression error: %s" m
  in
  match sexps with
  | [ Sexp.List (Sexp.Atom "DefPart" :: Sexp.Str name :: body) ] ->
      let devices = ref [] and nets = ref [] in
      List.iter
        (function
          | Sexp.List (Sexp.Atom "DefPart" :: _) -> () (* nEnh/nDep decls *)
          | Sexp.List (Sexp.Atom "Part" :: items) ->
              devices := parse_part items :: !devices
          | Sexp.List (Sexp.Atom "Net" :: items) ->
              nets := parse_net items :: !nets
          | Sexp.List (Sexp.Atom "Local" :: _) -> ()
          | other -> fail "unexpected wirelist item %s" (Sexp.to_string other))
        body;
      let devices = List.rev !devices and nets = List.rev !nets in
      (* Net ids may be sparse in handwritten files: build a dense map. *)
      let mentioned = Hashtbl.create 64 in
      let mention id = Hashtbl.replace mentioned id () in
      List.iter
        (fun d ->
          mention d.pd_gate;
          mention d.pd_source;
          mention d.pd_drain)
        devices;
      List.iter (fun n -> mention n.pn_id) nets;
      let ids = Hashtbl.fold (fun id () acc -> id :: acc) mentioned [] in
      let ids = List.sort Int.compare ids in
      let dense = Hashtbl.create 64 in
      List.iteri (fun i id -> Hashtbl.replace dense id i) ids;
      let map id = Hashtbl.find dense id in
      let net_array =
        Array.of_list
          (List.map
             (fun id ->
               match
                 List.find_opt (fun n -> n.pn_id = id) nets
               with
               | Some n ->
                   {
                     Circuit.names = n.pn_names;
                     location = n.pn_location;
                     geometry =
                       List.filter_map
                         (fun (lyr, bx) ->
                           match lyr with
                           | Some l -> Some (l, bx)
                           | None -> None)
                         n.pn_geometry;
                   }
               | None ->
                   { Circuit.names = []; location = Point.origin; geometry = [] })
             ids)
      in
      let device_array =
        Array.of_list
          (List.map
             (fun d ->
               {
                 Circuit.dtype = d.pd_type;
                 gate = map d.pd_gate;
                 source = map d.pd_source;
                 drain = map d.pd_drain;
                 length = d.pd_length;
                 width = d.pd_width;
                 location = d.pd_location;
                 geometry =
                   List.map
                     (fun (_, bx) -> (Layer.Diffusion, bx))
                     d.pd_geometry;
               })
             devices)
      in
      { Circuit.name; devices = device_array; nets = net_array }
  | _ -> fail "expected a single (DefPart \"name\" ...) form"
