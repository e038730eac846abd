(* The reference-deck parser and the hierarchy flattener as they were
   before both moved onto int arrays, kept as oracles for test_lvs: the
   array versions must reproduce their nets, names, locations, devices,
   diagnostics, views and activations exactly.  Each function is the
   earlier implementation with only its inputs and output types made
   explicit; none of it is tuned, and none of it should be. *)

open Ace_netlist
module Diag = Ace_diag.Diag
module Point = Ace_geom.Point
module Reference = Ace_lvs.Reference
open Reference

(* ---------- logical cards ---------------------------------------------- *)

type card = { span : Diag.span; tokens : string list }

(* Split [text] into logical cards: physical lines, with a leading '+'
   continuing the previous card.  '*' lines are comments; '$' starts an
   inline comment.  Spans cover the full logical card. *)
let cards_of_string text =
  let len = String.length text in
  let lines = ref [] in
  let start = ref 0 in
  for i = 0 to len - 1 do
    if text.[i] = '\n' then begin
      lines := (!start, i) :: !lines;
      start := i + 1
    end
  done;
  if !start < len then lines := (!start, len) :: !lines;
  let lines = List.rev !lines in
  let strip (a, b) =
    let s = String.sub text a (b - a) in
    let s =
      match String.index_opt s '$' with
      | Some k -> String.sub s 0 k
      | None -> s
    in
    String.trim s
  in
  let cards = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (a, b, buf) ->
        let tokens =
          String.concat " " (List.rev buf)
          |> String.map (function '(' | ')' | ',' -> ' ' | c -> c)
          |> String.split_on_char ' '
          |> List.filter (fun t -> t <> "")
        in
        if tokens <> [] then
          cards := { span = { Diag.start = a; stop = b }; tokens } :: !cards;
        current := None
  in
  List.iter
    (fun (a, b) ->
      let s = strip (a, b) in
      if s = "" || s.[0] = '*' then ()
      else if s.[0] = '+' then
        match !current with
        | Some (a0, _, buf) ->
            current := Some (a0, b, String.sub s 1 (String.length s - 1) :: buf)
        | None -> current := Some (a, b, [ String.sub s 1 (String.length s - 1) ])
      else begin
        flush ();
        current := Some (a, b, [ s ])
      end)
    lines;
  flush ();
  List.rev !cards

(* ---------- numbers ----------------------------------------------------- *)

(* Dimension values: bare numbers are centimicrons; U = microns (x100),
   N = nanometers (/10), M = millimeters (x100_000).  Returns rounded
   centimicrons, or None on malformed input. *)
let parse_dim s =
  let s = String.uppercase_ascii s in
  let n = String.length s in
  if n = 0 then None
  else
    let scale, cut =
      match s.[n - 1] with
      | 'U' -> (100., 1)
      | 'N' -> (0.1, 1)
      | 'M' -> (100_000., 1)
      | _ -> (1., 0)
    in
    match float_of_string_opt (String.sub s 0 (n - cut)) with
    | Some v when v >= 0. -> Some (int_of_float (Float.round (v *. scale)))
    | _ -> None

(* ---------- first pass: collect scopes ---------------------------------- *)

type dev_card = {
  d_span : Diag.span;
  d_name : string;
  d_model : string;  (** uppercased model token *)
  d_d : string;
  d_g : string;
  d_s : string;  (** node tokens, original spelling *)
  d_l : int;
  d_w : int;  (** centimicrons; 0 = unspecified *)
}

type inst_card = {
  i_span : Diag.span;
  i_name : string;
  i_nodes : string list;
  i_sub : string;  (** uppercased subckt name *)
}

type item = Dev of dev_card | Inst of inst_card

type scope = {
  s_name : string;  (** uppercased; "" = top level *)
  s_pins : string list;  (** uppercased formal pin names *)
  s_span : Diag.span option;
  mutable s_items : item list;  (** reversed *)
}

let up = String.uppercase_ascii

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Split card tokens into positional tokens and K=V parameters. *)
let split_params tokens =
  List.partition_map
    (fun t ->
      match String.index_opt t '=' with
      | Some k when k > 0 ->
          Right
            ( up (String.sub t 0 k),
              String.sub t (k + 1) (String.length t - k - 1) )
      | _ -> Left t)
    tokens

(* First-pass result: scopes, models, and globals collected from the
   cards, shared by the flat flattener and the hierarchical view. *)
type scan = {
  sc_subckts : (string, scope) Hashtbl.t;
  sc_models : (string, Ace_tech.Nmos.device_type) Hashtbl.t;
  sc_globals : (string, unit) Hashtbl.t;
  sc_top : scope;
  sc_diags : Diag.t list;  (** in order *)
}

let scan_text text =
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let cards = cards_of_string text in
  let subckts : (string, scope) Hashtbl.t = Hashtbl.create 8 in
  let models : (string, Ace_tech.Nmos.device_type) Hashtbl.t =
    Hashtbl.create 4
  in
  let globals : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let top = { s_name = ""; s_pins = []; s_span = None; s_items = [] } in
  let stack = ref [ top ] in
  let cur () = List.hd !stack in
  let stopped = ref false in
  let do_card { span; tokens } =
    let head = List.hd tokens in
    let keyword = up head in
    match keyword.[0] with
    | '.' -> (
        match keyword with
        | ".SUBCKT" -> (
            match tokens with
            | _ :: sname :: pins ->
                let pins, _params = split_params pins in
                let scope =
                  {
                    s_name = up sname;
                    s_pins = List.map up pins;
                    s_span = Some span;
                    s_items = [];
                  }
                in
                stack := scope :: !stack
            | _ ->
                diag
                  (Diag.error ~span ~code:"lvs-ref-bad-card"
                     ".SUBCKT needs a name"))
        | ".ENDS" -> (
            match !stack with
            | scope :: (_ :: _ as rest) ->
                Hashtbl.replace subckts scope.s_name scope;
                stack := rest
            | _ ->
                diag
                  (Diag.error ~span ~code:"lvs-ref-unmatched-ends"
                     ".ENDS without a matching .SUBCKT"))
        | ".MODEL" -> (
            let positional, params = split_params (List.tl tokens) in
            match positional with
            | mname :: _ ->
                (* VTO sign decides enhancement vs depletion when present;
                   otherwise names containing DEP (or the literal D prefix
                   convention) are depletion. *)
                let dtype =
                  match List.assoc_opt "VTO" params with
                  | Some v -> (
                      match float_of_string_opt v with
                      | Some v when v < 0. -> Ace_tech.Nmos.Depletion
                      | Some _ -> Ace_tech.Nmos.Enhancement
                      | None -> Ace_tech.Nmos.Enhancement)
                  | None ->
                      if contains_sub (up mname) "DEP" then
                        Ace_tech.Nmos.Depletion
                      else Ace_tech.Nmos.Enhancement
                in
                Hashtbl.replace models (up mname) dtype
            | [] ->
                diag
                  (Diag.error ~span ~code:"lvs-ref-bad-card"
                     ".MODEL needs a name"))
        | ".GLOBAL" ->
            List.iter (fun t -> Hashtbl.replace globals (up t) ()) (List.tl tokens)
        | ".END" -> stopped := true
        | _ ->
            diag
              (Diag.hint ~span ~code:"lvs-ref-unknown-card"
                 (Printf.sprintf "ignoring unknown control card %s" keyword)))
    | 'M' -> (
        let positional, params = split_params tokens in
        (* Mname d g s [b] model — 3-node (no bulk) and 4-node forms. *)
        match positional with
        | nm :: d :: g :: s :: rest
          when List.length rest = 1 || List.length rest = 2 ->
            let model = up (List.nth rest (List.length rest - 1)) in
            let dim key =
              match List.assoc_opt key params with
              | None -> 0
              | Some v -> (
                  match parse_dim v with
                  | Some cm -> cm
                  | None ->
                      diag
                        (Diag.error ~span ~code:"lvs-ref-bad-number"
                           (Printf.sprintf "cannot parse %s=%s" key v));
                      0)
            in
            (cur ()).s_items <-
              Dev
                {
                  d_span = span;
                  d_name = nm;
                  d_model = model;
                  d_d = d;
                  d_g = g;
                  d_s = s;
                  d_l = dim "L";
                  d_w = dim "W";
                }
              :: (cur ()).s_items
        | _ ->
            diag
              (Diag.error ~span ~code:"lvs-ref-bad-device"
                 (Printf.sprintf
                    "device card %s needs 3 or 4 nodes and a model" head)))
    | 'X' -> (
        let positional, _params = split_params tokens in
        match positional with
        | nm :: (_ :: _ as rest) ->
            let n_nodes = List.length rest - 1 in
            let nodes = List.filteri (fun i _ -> i < n_nodes) rest in
            let sub = up (List.nth rest (List.length rest - 1)) in
            (cur ()).s_items <-
              Inst { i_span = span; i_name = nm; i_nodes = nodes; i_sub = sub }
              :: (cur ()).s_items
        | _ ->
            diag
              (Diag.error ~span ~code:"lvs-ref-bad-card"
                 (Printf.sprintf "instance card %s needs nodes and a name" head)))
    | 'R' | 'C' | 'V' | 'I' | 'L' | 'D' | 'Q' | 'J' | 'K' | 'E' | 'F' | 'G'
    | 'H' ->
        diag
          (Diag.hint ~span ~code:"lvs-ref-ignored-card"
             (Printf.sprintf
                "%c card %s ignored (only transistors take part in switch-level \
                 comparison)"
                keyword.[0] head))
    | _ ->
        diag
          (Diag.error ~span ~code:"lvs-ref-bad-card"
             (Printf.sprintf "unrecognized card %s" head))
  in
  List.iter (fun c -> if not !stopped then do_card c) cards;
  (match !stack with
  | _ :: (_ :: _) ->
      List.iter
        (fun scope ->
          if scope.s_name <> "" then begin
            (match scope.s_span with
            | Some span ->
                diag
                  (Diag.error ~span ~code:"lvs-ref-unterminated-subckt"
                     (Printf.sprintf ".SUBCKT %s never closed by .ENDS"
                        scope.s_name))
            | None -> ());
            Hashtbl.replace subckts scope.s_name scope
          end)
        !stack
  | _ -> ());
  {
    sc_subckts = subckts;
    sc_models = models;
    sc_globals = globals;
    sc_top = top;
    sc_diags = List.rev !diags;
  }

(* Formal pin -> actual net, for resolving an instance body.  A formal
   named twice keeps its first actual.  Every actual is resolved, in card
   order, which fixes the numbering of any nets they create. *)
let bind_pins formals actuals resolve =
  let bind = Hashtbl.create (List.length formals) in
  List.iter2
    (fun formal actual ->
      let net = resolve actual in
      if not (Hashtbl.mem bind formal) then Hashtbl.add bind formal net)
    formals actuals;
  bind

let parse ?(name = "reference") ?(gnd = "GND") text =
  let sc = scan_text text in
  let subckts = sc.sc_subckts
  and models = sc.sc_models
  and globals = sc.sc_globals
  and top = sc.sc_top in
  let diags = ref (List.rev sc.sc_diags) in
  let diag d = diags := d :: !diags in

  (* -------- second pass: flatten into a Circuit.t -------- *)
  let gnd_key = up gnd in
  let net_index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let net_names = ref [] (* reversed display names *) in
  let n_nets = ref 0 in
  let net_of ~display key =
    match Hashtbl.find_opt net_index key with
    | Some i -> i
    | None ->
        let i = !n_nets in
        Hashtbl.replace net_index key i;
        net_names := display :: !net_names;
        incr n_nets;
        i
  in
  let devices = ref [] (* reversed *) in
  let n_devices = ref 0 in
  let max_devices = 1_000_000 in
  let model_type span m =
    match Hashtbl.find_opt models m with
    | Some t -> t
    | None ->
        if m = "ENH" || m = "NMOS" || m = "N" then Ace_tech.Nmos.Enhancement
        else if contains_sub m "DEP" then Ace_tech.Nmos.Depletion
        else begin
          diag
            (Diag.hint ~span ~code:"lvs-ref-unknown-model"
               (Printf.sprintf "unknown model %s treated as enhancement" m));
          Hashtbl.replace models m Ace_tech.Nmos.Enhancement;
          Ace_tech.Nmos.Enhancement
        end
  in
  let rec emit path active scope bind =
    let resolve tok =
      let u = up tok in
      if u = "0" || u = gnd_key then net_of ~display:gnd gnd_key
      else
        match Hashtbl.find_opt bind u with
        | Some i -> i
        | None ->
            if Hashtbl.mem globals u || path = "" then net_of ~display:tok u
            else net_of ~display:(path ^ tok) (up path ^ u)
    in
    List.iter
      (function
        | Dev d ->
            if !n_devices >= max_devices then begin
              if !n_devices = max_devices then
                diag
                  (Diag.error ~span:d.d_span ~code:"lvs-ref-too-large"
                     (Printf.sprintf
                        "flattened netlist exceeds %d devices; truncating"
                        max_devices));
              incr n_devices
            end
            else begin
              let dev =
                {
                  Circuit.dtype = model_type d.d_span d.d_model;
                  gate = resolve d.d_g;
                  source = resolve d.d_s;
                  drain = resolve d.d_d;
                  length = d.d_l;
                  width = d.d_w;
                  location = Point.make !n_devices 0;
                  geometry = [];
                }
              in
              devices := dev :: !devices;
              incr n_devices
            end
        | Inst inst -> (
            match Hashtbl.find_opt subckts inst.i_sub with
            | None ->
                diag
                  (Diag.error ~span:inst.i_span ~code:"lvs-ref-undefined-subckt"
                     (Printf.sprintf "instance %s of undefined subcircuit %s"
                        inst.i_name inst.i_sub))
            | Some sub when List.mem inst.i_sub active ->
                diag
                  (Diag.error ~span:inst.i_span ~code:"lvs-ref-recursive"
                     (Printf.sprintf "recursive expansion of subcircuit %s"
                        sub.s_name))
            | Some sub ->
                if List.length inst.i_nodes <> List.length sub.s_pins then
                  diag
                    (Diag.error ~span:inst.i_span ~code:"lvs-ref-pin-mismatch"
                       (Printf.sprintf
                          "instance %s passes %d nodes but %s declares %d pins"
                          inst.i_name
                          (List.length inst.i_nodes)
                          sub.s_name (List.length sub.s_pins)))
                else
                  emit
                    (path ^ inst.i_name ^ "/")
                    (inst.i_sub :: active) sub
                    (bind_pins sub.s_pins inst.i_nodes resolve)))
      (List.rev scope.s_items)
  in
  emit "" [] top (Hashtbl.create 1);
  let nets =
    !net_names |> List.rev
    |> List.mapi (fun i display ->
           { Circuit.names = [ display ]; location = Point.make i 0; geometry = [] })
    |> Array.of_list
  in
  let circuit =
    { Circuit.name; devices = Array.of_list (List.rev !devices); nets }
  in
  (circuit, List.rev !diags)

(* ---------- hierarchical view ------------------------------------------- *)

let hier_view ?(name = "reference") ?(gnd = "GND") text =
    let sc = scan_text text in
  let gnd_key = up gnd in
  let has_top_inst =
    List.exists
      (function Inst _ -> true | Dev _ -> false)
      sc.sc_top.s_items
  in
  (* Any first-pass error, or a flat deck, and the hierarchical view is
     worthless — the caller falls back to the flat compare, which owns
     diagnostics. *)
  if List.exists Diag.is_error sc.sc_diags || not has_top_inst then None
  else begin
    let ok = ref true in
    let budget = ref 1_000_000 in
    let model_type m =
      match Hashtbl.find_opt sc.sc_models m with
      | Some t -> t
      | None ->
          if contains_sub m "DEP" then Ace_tech.Nmos.Depletion
          else Ace_tech.Nmos.Enhancement
    in
    (* Build one cell body per subckt instantiated at the top level;
       nested instances flatten into the body.  Globals (and ground)
       referenced inside become implicit pins appended after the formals,
       so every cell terminal surfaces at its instances. *)
    let build_cell (sub : scope) =
      let net_index = Hashtbl.create 16 in
      let net_names = ref [] in
      let n_nets = ref 0 in
      let net_of ~display key =
        match Hashtbl.find_opt net_index key with
        | Some i -> i
        | None ->
            let i = !n_nets in
            Hashtbl.replace net_index key i;
            net_names := display :: !net_names;
            incr n_nets;
            i
      in
      let pin_nets =
        List.map (fun p -> net_of ~display:p p) sub.s_pins
      in
      let implicit = ref [] (* (name, net), reversed first-use order *) in
      let implicit_net key display =
        match List.assoc_opt key !implicit with
        | Some i -> i
        | None ->
            let i = net_of ~display ("\x00GLOBAL/" ^ key) in
            implicit := (key, i) :: !implicit;
            i
      in
      let devices = ref [] in
      let n_devices = ref 0 in
      let rec emit_body path active (scope : scope) bind =
        let resolve tok =
          let u = up tok in
          if u = "0" || u = gnd_key then implicit_net gnd_key gnd
          else
            match Hashtbl.find_opt bind u with
            | Some i -> i
            | None ->
                if Hashtbl.mem sc.sc_globals u then implicit_net u tok
                else if path = "" then net_of ~display:tok u
                else net_of ~display:(path ^ tok) (up path ^ u)
        in
        List.iter
          (function
            | Dev d ->
                decr budget;
                if !budget < 0 then ok := false
                else begin
                  let dev =
                    {
                      Circuit.dtype = model_type d.d_model;
                      gate = resolve d.d_g;
                      source = resolve d.d_s;
                      drain = resolve d.d_d;
                      length = d.d_l;
                      width = d.d_w;
                      location = Point.make !n_devices 0;
                      geometry = [];
                    }
                  in
                  devices := dev :: !devices;
                  incr n_devices
                end
            | Inst inst -> (
                match Hashtbl.find_opt sc.sc_subckts inst.i_sub with
                | None -> ok := false
                | Some _ when List.mem inst.i_sub active -> ok := false
                | Some nested ->
                    if
                      List.length inst.i_nodes <> List.length nested.s_pins
                    then ok := false
                    else
                      emit_body
                        (path ^ inst.i_name ^ "/")
                        (inst.i_sub :: active) nested
                        (bind_pins nested.s_pins inst.i_nodes resolve)))
          (List.rev scope.s_items)
      in
      emit_body "" [ sub.s_name ] sub (bind_pins sub.s_pins pin_nets Fun.id);
      let implicit = List.rev !implicit in
      let nets =
        !net_names |> List.rev
        |> List.mapi (fun i display ->
               {
                 Circuit.names = [ display ];
                 location = Point.make i 0;
                 geometry = [];
               })
        |> Array.of_list
      in
      {
        hc_name = sub.s_name;
        hc_pins = sub.s_pins @ List.map fst implicit;
        hc_formals = List.length sub.s_pins;
        hc_body =
          {
            Circuit.name = sub.s_name;
            devices = Array.of_list (List.rev !devices);
            nets;
          };
        hc_pin_nets =
          Array.of_list (pin_nets @ List.map snd implicit);
      }
    in
    (* Glue: top-level nets, devices, and one pseudo-instance per X card. *)
    let net_index = Hashtbl.create 32 in
    let net_names = ref [] in
    let n_nets = ref 0 in
    let net_of ~display key =
      match Hashtbl.find_opt net_index key with
      | Some i -> i
      | None ->
          let i = !n_nets in
          Hashtbl.replace net_index key i;
          net_names := display :: !net_names;
          incr n_nets;
          i
    in
    let resolve_top tok =
      let u = up tok in
      if u = "0" || u = gnd_key then net_of ~display:gnd gnd_key
      else net_of ~display:tok u
    in
    let cells = ref [] (* reversed *) in
    let n_cells = ref 0 in
    let cell_index = Hashtbl.create 8 (* subckt name -> (index, cell) *) in
    let cell_of sub_name =
      match Hashtbl.find_opt cell_index sub_name with
      | Some _ as hit -> hit
      | None -> (
          match Hashtbl.find_opt sc.sc_subckts sub_name with
          | None ->
              ok := false;
              None
          | Some sub ->
              let cell = build_cell sub in
              let i = !n_cells in
              Hashtbl.replace cell_index sub_name (i, cell);
              cells := cell :: !cells;
              incr n_cells;
              Some (i, cell))
    in
    let glue_devices = ref [] in
    let n_glue = ref 0 in
    let insts = ref [] (* reversed *) in
    List.iter
      (function
        | Dev d ->
            let dev =
              {
                Circuit.dtype = model_type d.d_model;
                gate = resolve_top d.d_g;
                source = resolve_top d.d_s;
                drain = resolve_top d.d_d;
                length = d.d_l;
                width = d.d_w;
                location = Point.make !n_glue 0;
                geometry = [];
              }
            in
            glue_devices := dev :: !glue_devices;
            incr n_glue
        | Inst inst -> (
            match cell_of inst.i_sub with
            | None -> ()
            | Some (ci, cell) ->
              if List.length inst.i_nodes <> cell.hc_formals then
                ok := false
              else begin
                let formal_nets = List.map resolve_top inst.i_nodes in
                let implicit_names =
                  List.filteri
                    (fun i _ -> i >= cell.hc_formals)
                    cell.hc_pins
                in
                let implicit_nets =
                  List.map
                    (fun g ->
                      if up g = gnd_key then net_of ~display:gnd gnd_key
                      else resolve_top g)
                    implicit_names
                in
                insts :=
                  {
                    hi_cell = ci;
                    hi_nets = Array.of_list (formal_nets @ implicit_nets);
                  }
                  :: !insts
              end))
      (List.rev sc.sc_top.s_items);
    if not !ok then None
    else begin
      let nets =
        !net_names |> List.rev
        |> List.mapi (fun i display ->
               {
                 Circuit.names = [ display ];
                 location = Point.make i 0;
                 geometry = [];
               })
        |> Array.of_list
      in
      Some
        {
          hv_glue =
            {
              Circuit.name;
              devices = Array.of_list (List.rev !glue_devices);
              nets;
            };
          hv_cells = Array.of_list (List.rev !cells);
          hv_insts = List.rev !insts;
        }
    end
  end

(* ---------- Hier.flatten_ext ------------------------------------------- *)

open Hier

let fail fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let part t name =
  match List.find_opt (fun (p : part) -> p.part_name = name) t.parts with
  | Some p -> p
  | None -> fail "unknown part %S" name

let validate t =
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.part_name then
        problem "duplicate part %S" p.part_name;
      let check_net what n =
        if n < 0 || n >= p.net_count then
          problem "part %S: %s net %d out of range [0,%d)" p.part_name what n
            p.net_count
      in
      List.iter (check_net "export") p.exports;
      List.iter (fun (n, _) -> check_net "named" n) p.net_names;
      List.iter
        (fun d ->
          check_net "gate" d.gate;
          check_net "source" d.source;
          check_net "drain" d.drain)
        p.devices;
      List.iter
        (fun (inst : instance) ->
          match Hashtbl.find_opt seen inst.part_name with
          | None ->
              problem "part %S instantiates %S before its definition"
                p.part_name inst.part_name
          | Some (child : part) ->
              List.iter
                (fun (inner, outer) ->
                  if inner < 0 || inner >= child.net_count then
                    problem "part %S: binding of %S net %d out of range"
                      p.part_name inst.part_name inner;
                  check_net "binding target" outer)
                inst.net_map)
        p.instances;
      Hashtbl.replace seen p.part_name p)
    t.parts;
  if not (Hashtbl.mem seen t.top) then problem "top part %S undefined" t.top;
  List.rev !problems

let flatten_ext t =
  (match validate t with
  | [] -> ()
  | p :: _ -> fail "invalid hierarchy: %s" p);
  let uf = Union_find.create () in
  let devices = ref [] in
  let dev_counter = ref 0 in
  let activations = ref [] in
  let names : (int, string list) Hashtbl.t = Hashtbl.create 64 in
  let locations : (int, Point.t) Hashtbl.t = Hashtbl.create 64 in
  let rec instantiate part_def (offset : Point.t) =
    (* fresh global nets for this activation's local nets *)
    let map = Array.init part_def.net_count (fun _ -> Union_find.fresh uf) in
    let first_device = !dev_counter in
    List.iter
      (fun (n, name) ->
        let g = map.(n) in
        let existing = try Hashtbl.find names g with Not_found -> [] in
        Hashtbl.replace names g (name :: existing))
      part_def.net_names;
    List.iter
      (fun d ->
        let location = Point.add d.location offset in
        List.iter
          (fun net ->
            if not (Hashtbl.mem locations map.(net)) then
              Hashtbl.replace locations map.(net) location)
          [ d.gate; d.source; d.drain ];
        incr dev_counter;
        devices :=
          ( d.dtype,
            map.(d.gate),
            map.(d.source),
            map.(d.drain),
            d.length,
            d.width,
            location )
          :: !devices)
      part_def.devices;
    List.iter
      (fun (inst : instance) ->
        let child = part t inst.part_name in
        let child_map = instantiate child (Point.add offset inst.offset) in
        List.iter
          (fun (inner, outer) ->
            ignore (Union_find.union uf child_map.(inner) map.(outer)))
          inst.net_map)
      part_def.instances;
    activations :=
      {
        act_part = part_def.part_name;
        act_nets = map;
        act_leaf = part_def.instances = [];
        act_device = first_device;
      }
      :: !activations;
    map
  in
  ignore (instantiate (part t t.top) Point.origin);
  let dense = Union_find.compress uf in
  let class_count = Union_find.class_count uf in
  let net_names = Array.make class_count [] in
  let net_locations = Array.make class_count Point.origin in
  Hashtbl.iter
    (fun g ns -> net_names.(dense.(g)) <- ns @ net_names.(dense.(g)))
    names;
  Hashtbl.iter (fun g loc -> net_locations.(dense.(g)) <- loc) locations;
  let nets =
    Array.init class_count (fun i ->
        {
          Circuit.names = List.sort_uniq String.compare net_names.(i);
          location = net_locations.(i);
          geometry = [];
        })
  in
  let devices =
    Array.of_list
      (List.rev_map
         (fun (dtype, g, s, d, length, width, location) ->
           {
             Circuit.dtype;
             gate = dense.(g);
             source = dense.(s);
             drain = dense.(d);
             length;
             width;
             location;
             geometry = [];
           })
         !devices)
  in
  let circuit = { Circuit.name = t.top; devices; nets } in
  let activations =
    List.rev_map
      (fun a -> { a with act_nets = Array.map (fun g -> dense.(g)) a.act_nets })
      !activations
  in
  (circuit, activations)

