(* Lenient structural-Verilog reference front end.

   Schematic flows increasingly emit gate-level structural Verilog rather
   than transistor-level SPICE, so the comparator accepts the structural
   subset directly: module/endmodule, wire/input/output/inout
   declarations, and instances with named or positional port maps.  A
   small gate-primitive library (not/nand/nor and the nmos switch) lowers
   to the same depletion-load transistor IR the extractor produces, so
   the Reduce/Match pipeline consumes Verilog references identically to
   SPICE ones.

   Parsing follows the house rule: never raise, always produce a circuit
   from whatever was readable, and report every malformed construct as an
   Ace_diag diagnostic with a byte span and a stable lvs-ref-* code.
   Lowered devices carry L=W=0 ("unspecified"), which the size audit
   skips — a gate-level reference has no geometry opinion. *)

open Ace_netlist
module Diag = Ace_diag.Diag
module Point = Ace_geom.Point

(* ---------- tokens ------------------------------------------------------ *)

type tok = { t : string; pos : int; stop : int }

let is_id_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_id_char c = is_id_start c || (c >= '0' && c <= '9') || c = '$'

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      let stop = ref false in
      while (not !stop) && !i < n do
        if text.[!i] = '*' && !i + 1 < n && text.[!i + 1] = '/' then begin
          i := !i + 2;
          stop := true
        end
        else incr i
      done
    end
    else if c = '`' then
      (* compiler directive: significant to simulation only *)
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    else if is_id_start c then begin
      let a = !i in
      while !i < n && is_id_char text.[!i] do
        incr i
      done;
      toks := { t = String.sub text a (!i - a); pos = a; stop = !i } :: !toks
    end
    else if c >= '0' && c <= '9' then begin
      (* sized literals (1'b0) stay one token *)
      let a = !i in
      while !i < n && (is_id_char text.[!i] || text.[!i] = '\'') do
        incr i
      done;
      toks := { t = String.sub text a (!i - a); pos = a; stop = !i } :: !toks
    end
    else begin
      toks := { t = String.make 1 c; pos = !i; stop = !i + 1 } :: !toks;
      incr i
    end
  done;
  Array.of_list (List.rev !toks)

(* ---------- AST --------------------------------------------------------- *)

type conn = CNamed of string * string option | CPos of string option

type vinst = {
  v_span : Diag.span;
  v_type : string;
  v_name : string;
  v_conns : conn list;
}

type vmodule = {
  m_name : string;
  m_span : Diag.span;
  m_ports : string list;
  mutable m_insts : vinst list;  (** reversed *)
}

let decl_keywords =
  [ "input"; "output"; "inout"; "wire"; "reg"; "supply0"; "supply1" ]

let ignored_keywords = [ "assign"; "initial"; "always"; "parameter" ]

(* ---------- parser ------------------------------------------------------ *)

let parse ?(name = "reference") ?(vdd = "VDD") ?(gnd = "GND") text =
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let toks = tokenize text in
  let nt = Array.length toks in
  let p = ref 0 in
  let span_at i =
    if nt = 0 then { Diag.start = 0; stop = 0 }
    else if i >= nt then
      { Diag.start = toks.(nt - 1).pos; stop = toks.(nt - 1).stop }
    else { Diag.start = toks.(i).pos; stop = toks.(i).stop }
  in
  let span_range a b =
    let sa = span_at a and sb = span_at (max a b) in
    { Diag.start = sa.Diag.start; stop = sb.Diag.stop }
  in
  let peek () = if !p < nt then Some toks.(!p).t else None in
  let is_ident i =
    i < nt && String.length toks.(i).t > 0 && is_id_start toks.(i).t.[0]
  in
  let syntax i msg =
    diag (Diag.error ~span:(span_at i) ~code:"lvs-ref-verilog-syntax" msg)
  in
  (* recover to just past the next ';' without crossing endmodule *)
  let skip_to_semi () =
    while
      !p < nt && toks.(!p).t <> ";" && toks.(!p).t <> "endmodule"
      && toks.(!p).t <> "module"
    do
      incr p
    done;
    if !p < nt && toks.(!p).t = ";" then incr p
  in
  let skip_brackets () =
    (* vector selects add no structure we compare *)
    if peek () = Some "[" then begin
      incr p;
      while !p < nt && toks.(!p).t <> "]" && toks.(!p).t <> ";" do
        incr p
      done;
      if !p < nt && toks.(!p).t = "]" then incr p
    end
  in
  let modules = ref [] (* reversed *) in
  let anon = ref 0 in
  let parse_ports () =
    (* header port list: idents, skipping directions and vectors *)
    let ports = ref [] in
    if peek () = Some "(" then begin
      incr p;
      while !p < nt && toks.(!p).t <> ")" && toks.(!p).t <> ";" do
        let t = toks.(!p).t in
        if List.mem t decl_keywords then incr p
        else if t = "[" then skip_brackets ()
        else if t = "," then incr p
        else if is_ident !p then begin
          ports := t :: !ports;
          incr p
        end
        else begin
          syntax !p (Printf.sprintf "unexpected %s in port list" t);
          incr p
        end
      done;
      if !p < nt && toks.(!p).t = ")" then incr p
    end;
    List.rev !ports
  in
  let parse_conns () =
    (* inside (...): .formal(actual), positional nets, or empty slots *)
    let conns = ref [] in
    let expecting = ref true in
    let stop = ref false in
    while not !stop do
      match peek () with
      | None | Some ";" | Some "endmodule" | Some "module" ->
          syntax !p "unterminated port connection list";
          stop := true
      | Some ")" ->
          incr p;
          if !expecting && !conns <> [] then conns := CPos None :: !conns;
          stop := true
      | Some "," ->
          if !expecting then conns := CPos None :: !conns;
          expecting := true;
          incr p
      | Some "." ->
          incr p;
          if is_ident !p then begin
            let formal = toks.(!p).t in
            incr p;
            if peek () = Some "(" then begin
              incr p;
              skip_brackets ();
              let actual =
                if is_ident !p || (!p < nt && toks.(!p).t <> ")") then
                  if is_ident !p then begin
                    let a = toks.(!p).t in
                    incr p;
                    skip_brackets ();
                    Some a
                  end
                  else begin
                    syntax !p "expected a net name in port connection";
                    while !p < nt && toks.(!p).t <> ")" && toks.(!p).t <> ";"
                    do
                      incr p
                    done;
                    None
                  end
                else None
              in
              if peek () = Some ")" then incr p
              else syntax !p "expected ) after port connection";
              conns := CNamed (formal, actual) :: !conns;
              expecting := false
            end
            else begin
              syntax !p
                (Printf.sprintf "expected ( after .%s in port map" formal);
              conns := CNamed (formal, None) :: !conns;
              expecting := false
            end
          end
          else begin
            syntax !p "expected a port name after . in port map";
            incr p
          end
      | Some t when is_ident !p || (t <> "(" && t <> ".") ->
          incr p;
          skip_brackets ();
          conns := CPos (Some t) :: !conns;
          expecting := false
      | Some t ->
          syntax !p (Printf.sprintf "unexpected %s in port connections" t);
          incr p
    done;
    List.rev !conns
  in
  let parse_instances m =
    let tstart = !p in
    let ty = toks.(!p).t in
    incr p;
    let rec one () =
      let iname =
        if is_ident !p then begin
          let n = toks.(!p).t in
          incr p;
          skip_brackets ();
          n
        end
        else begin
          incr anon;
          Printf.sprintf "u$%d" !anon
        end
      in
      if peek () = Some "(" then begin
        incr p;
        let conns = parse_conns () in
        m.m_insts <-
          {
            v_span = span_range tstart (!p - 1);
            v_type = ty;
            v_name = iname;
            v_conns = conns;
          }
          :: m.m_insts;
        match peek () with
        | Some "," ->
            incr p;
            one ()
        | Some ";" -> incr p
        | _ ->
            syntax !p "expected ; after instance";
            skip_to_semi ()
      end
      else begin
        syntax !p (Printf.sprintf "expected ( after instance %s" iname);
        skip_to_semi ()
      end
    in
    one ()
  in
  let parse_module () =
    let mstart = !p in
    incr p;
    let mname =
      if is_ident !p then begin
        let n = toks.(!p).t in
        incr p;
        n
      end
      else begin
        syntax !p "module needs a name";
        incr anon;
        Printf.sprintf "module$%d" !anon
      end
    in
    let ports = parse_ports () in
    (match peek () with
    | Some ";" -> incr p
    | _ ->
        syntax !p "expected ; after module header";
        skip_to_semi ());
    let m =
      {
        m_name = mname;
        m_span = span_range mstart (!p - 1);
        m_ports = ports;
        m_insts = [];
      }
    in
    let stop = ref false in
    while not !stop do
      match peek () with
      | None ->
          syntax (nt - 1)
            (Printf.sprintf "module %s never closed by endmodule" mname);
          stop := true
      | Some "endmodule" ->
          incr p;
          stop := true
      | Some "module" ->
          syntax !p
            (Printf.sprintf "module %s never closed by endmodule" mname);
          stop := true
      | Some t when List.mem t decl_keywords -> skip_to_semi ()
      | Some t when List.mem t ignored_keywords ->
          diag
            (Diag.hint ~span:(span_at !p) ~code:"lvs-ref-ignored-card"
               (Printf.sprintf
                  "%s ignored (only structure takes part in switch-level \
                   comparison)"
                  t));
          skip_to_semi ()
      | Some _ when is_ident !p -> parse_instances m
      | Some t ->
          syntax !p (Printf.sprintf "unexpected %s" t);
          incr p
    done;
    modules := m :: !modules
  in
  (* top level: modules separated by junk we flag once per run of it *)
  while !p < nt do
    if toks.(!p).t = "module" then parse_module ()
    else begin
      let a = !p in
      while !p < nt && toks.(!p).t <> "module" do
        incr p
      done;
      syntax a "expected module"
    end
  done;
  let modules = List.rev !modules in

  (* -------- elaboration ------------------------------------------------ *)
  let vdd_key = String.uppercase_ascii vdd
  and gnd_key = String.uppercase_ascii gnd in
  let up = String.uppercase_ascii in
  let mod_tbl = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace mod_tbl m.m_name m) modules;
  let instantiated = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun i -> Hashtbl.replace instantiated i.v_type ())
        m.m_insts)
    modules;
  let top =
    (* last-defined module nobody instantiates; among those, prefer one
       with instances, so an empty module recovered from junk does not
       shadow the real design *)
    let candidates =
      List.filter (fun m -> not (Hashtbl.mem instantiated m.m_name)) modules
    in
    let wired = List.filter (fun m -> m.m_insts <> []) candidates in
    match (List.rev wired, List.rev candidates, List.rev modules) with
    | m :: _, _, _ -> Some m
    | [], m :: _, _ -> Some m
    | [], [], m :: _ -> Some m
    | [], [], [] -> None
  in
  let net_index : (string, int) Hashtbl.t = Hashtbl.create 64 in
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
  let devices = ref [] in
  let n_devices = ref 0 in
  (* module activations; the first device or activation past its cap
     ends the walk, as in the SPICE reader *)
  let n_instances = ref 0 in
  let exception Too_large in
  let emit_dev span dtype ~gate ~source ~drain =
    if !n_devices >= Reference.max_devices then begin
      diag (Reference.too_large span `Devices);
      raise Too_large
    end;
    devices :=
      {
        Circuit.dtype;
        gate;
        source;
        drain;
        length = 0;
        width = 0;
        location = Point.make !n_devices 0;
        geometry = [];
      }
      :: !devices;
    incr n_devices
  in
  let fresh = ref 0 in
  let fresh_net path =
    incr fresh;
    let display = Printf.sprintf "%s$nc%d" path !fresh in
    net_of ~display (up display)
  in
  let resolve path bind tok =
    let u = up tok in
    if u = vdd_key then net_of ~display:vdd vdd_key
    else if u = gnd_key || u = "0" then net_of ~display:gnd gnd_key
    else
      match List.assoc_opt u bind with
      | Some i -> i
      | None ->
          if path = "" then net_of ~display:tok u
          else net_of ~display:(path ^ tok) (up path ^ u)
  in
  (* depletion-load NMOS lowering, the same shapes the extractor sees:
     pull-down enhancement network to ground, depletion load gate-tied to
     the output *)
  let load_dev span y =
    emit_dev span Ace_tech.Nmos.Depletion ~gate:y ~source:y
      ~drain:(net_of ~display:vdd vdd_key)
  in
  let lower_prim inst path nets =
    let span = inst.v_span in
    let gndn = net_of ~display:gnd gnd_key in
    let arity k =
      if List.length nets <> k then begin
        diag
          (Diag.error ~span ~code:"lvs-ref-pin-mismatch"
             (Printf.sprintf "%s takes %d ports but instance %s passes %d"
                (String.lowercase_ascii inst.v_type)
                k inst.v_name (List.length nets)));
        false
      end
      else true
    in
    match String.lowercase_ascii inst.v_type with
    | "not" ->
        if arity 2 then begin
          match nets with
          | [ y; a ] ->
              emit_dev span Ace_tech.Nmos.Enhancement ~gate:a ~source:gndn
                ~drain:y;
              load_dev span y
          | _ -> ()
        end
    | "nand" ->
        if List.length nets < 3 then
          diag
            (Diag.error ~span ~code:"lvs-ref-pin-mismatch"
               (Printf.sprintf
                  "nand needs an output and at least 2 inputs; instance %s \
                   passes %d ports"
                  inst.v_name (List.length nets)))
        else begin
          match nets with
          | y :: ins ->
              (* series pull-down chain gnd -> y through fresh nets *)
              let k = List.length ins in
              let node i =
                if i = 0 then gndn
                else if i = k then y
                else begin
                  let display =
                    Printf.sprintf "%s%s$n%d" path inst.v_name i
                  in
                  net_of ~display (up display)
                end
              in
              List.iteri
                (fun i g ->
                  emit_dev span Ace_tech.Nmos.Enhancement ~gate:g
                    ~source:(node i) ~drain:(node (i + 1)))
                ins;
              load_dev span y
          | [] -> ()
        end
    | "nor" ->
        if List.length nets < 3 then
          diag
            (Diag.error ~span ~code:"lvs-ref-pin-mismatch"
               (Printf.sprintf
                  "nor needs an output and at least 2 inputs; instance %s \
                   passes %d ports"
                  inst.v_name (List.length nets)))
        else begin
          match nets with
          | y :: ins ->
              List.iter
                (fun g ->
                  emit_dev span Ace_tech.Nmos.Enhancement ~gate:g
                    ~source:gndn ~drain:y)
                ins;
              load_dev span y
          | [] -> ()
        end
    | "nmos" ->
        if arity 3 then begin
          match nets with
          | [ d; s; g ] ->
              emit_dev span Ace_tech.Nmos.Enhancement ~gate:g ~source:s
                ~drain:d
          | _ -> ()
        end
    | other ->
        diag
          (Diag.error ~span ~code:"lvs-ref-unknown-primitive"
             (Printf.sprintf
                "instance %s of unknown module or primitive %s" inst.v_name
                other))
  in
  (* port binding: fully positional or fully named, never mixed *)
  let conn_nets path bind inst =
    let value = function
      | Some tok -> resolve path bind tok
      | None -> fresh_net path
    in
    let named =
      List.exists (function CNamed _ -> true | CPos _ -> false) inst.v_conns
    in
    let positional =
      List.exists (function CPos _ -> true | CNamed _ -> false) inst.v_conns
    in
    if named && positional then begin
      diag
        (Diag.error ~span:inst.v_span ~code:"lvs-ref-bad-portmap"
           (Printf.sprintf
              "instance %s mixes named and positional port connections"
              inst.v_name));
      None
    end
    else if named then Some (`Named, value)
    else
      Some
        ( `Pos
            (List.map
               (function CPos a -> value a | CNamed _ -> assert false)
               inst.v_conns),
          value )
  in
  let rec emit path active (m : vmodule) bind =
    List.iter
      (fun inst ->
        match Hashtbl.find_opt mod_tbl inst.v_type with
        | Some sub ->
            if List.mem sub.m_name active then
              diag
                (Diag.error ~span:inst.v_span ~code:"lvs-ref-recursive"
                   (Printf.sprintf "recursive expansion of module %s"
                      sub.m_name))
            else if !n_instances >= Reference.max_instances then begin
              diag (Reference.too_large inst.v_span `Instances);
              raise Too_large
            end
            else begin
              incr n_instances;
              let bind' =
                match conn_nets path bind inst with
                | None -> None
                | Some (`Named, value) ->
                    let seen = Hashtbl.create 8 in
                    let pairs = ref [] in
                    let bad = ref false in
                    List.iter
                      (function
                        | CNamed (f, a) ->
                            let fu = up f in
                            if Hashtbl.mem seen fu then begin
                              diag
                                (Diag.error ~span:inst.v_span
                                   ~code:"lvs-ref-bad-portmap"
                                   (Printf.sprintf
                                      "instance %s connects port %s twice"
                                      inst.v_name f));
                              bad := true
                            end
                            else if
                              not
                                (List.exists
                                   (fun port -> up port = fu)
                                   sub.m_ports)
                            then begin
                              diag
                                (Diag.error ~span:inst.v_span
                                   ~code:"lvs-ref-bad-portmap"
                                   (Printf.sprintf
                                      "instance %s connects unknown port %s \
                                       of module %s"
                                      inst.v_name f sub.m_name));
                              bad := true
                            end
                            else begin
                              Hashtbl.replace seen fu ();
                              pairs := (fu, a) :: !pairs
                            end
                        | CPos _ -> ())
                      inst.v_conns;
                    if !bad then None
                    else
                      Some
                        (List.map
                           (fun port ->
                             let fu = up port in
                             match List.assoc_opt fu !pairs with
                             | Some a -> (fu, value a)
                             | None -> (fu, fresh_net path))
                           sub.m_ports)
                | Some (`Pos nets, _) ->
                    if List.length nets <> List.length sub.m_ports then begin
                      diag
                        (Diag.error ~span:inst.v_span
                           ~code:"lvs-ref-pin-mismatch"
                           (Printf.sprintf
                              "instance %s passes %d ports but module %s \
                               declares %d"
                              inst.v_name (List.length nets) sub.m_name
                              (List.length sub.m_ports)));
                      None
                    end
                    else
                      Some
                        (List.map2
                           (fun port net -> (up port, net))
                           sub.m_ports nets)
              in
              match bind' with
              | None -> ()
              | Some bind' ->
                  emit
                    (path ^ inst.v_name ^ "/")
                    (sub.m_name :: active) sub bind'
            end
        | None -> (
            match conn_nets path bind inst with
            | None -> ()
            | Some (`Named, _) ->
                diag
                  (Diag.error ~span:inst.v_span ~code:"lvs-ref-bad-portmap"
                     (Printf.sprintf
                        "primitive instance %s cannot use named port \
                         connections"
                        inst.v_name))
            | Some (`Pos nets, _) -> lower_prim inst path nets))
      (List.rev m.m_insts)
  in
  (match top with
  | None -> ()
  | Some m -> ( try emit "" [ m.m_name ] m [] with Too_large -> ()));
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
  let circuit =
    { Circuit.name; devices = Array.of_list (List.rev !devices); nets }
  in
  (circuit, List.rev !diags)
