(* Hierarchical LVS over HEXT cell summaries.

   The flat comparator re-matches every instance of every cell from
   scratch; on a chip built from repeated cells that forfeits exactly the
   asymptotics HEXT's hierarchy bought.  This pass walks the extractor's
   hierarchical wirelist instead: each distinct part (by structural
   fingerprint) is compared against candidate reference subckts ONCE, the
   verdict and the boundary-pin correspondence are memoized, and every
   further instance is substituted as an opaque multi-terminal
   pseudo-device.  Only the residual top-level glue is then verified, by
   the same seeded partition refinement generalized to (role, net)
   terminal lists.

   The contract is verdict equivalence with the flat compare, enforced
   conservatively: a hierarchical Clean requires a full witness — every
   reference cell instance paired, pin-color multisets corresponding, and
   the glue color multisets equal.  ANY obstruction (no matching cell, a
   shared net name hidden inside a substituted instance, glue mismatch)
   abandons the attempt and falls back to the flat comparator, which owns
   the verdict; the hierarchical pass then only contributes lvs-cell-*
   findings that name the offending cell type. *)

open Ace_netlist
module Cancel = Ace_core.Cancel
module Trace = Ace_trace.Trace
module Diag = Ace_diag.Diag
module Hext = Ace_hext.Hext

type result = {
  r : Match.result;
  cell_matches : int;  (** distinct cell summaries compared *)
  cell_hits : int;  (** instances served from the summary memo *)
  fallback : bool;  (** the verdict came from the flat comparator *)
}

let mix = Refine.mix

(* ---------- growable union-find over glue nets -------------------------- *)

module Uf = struct
  type t = { mutable parent : int array; mutable n : int }

  let create () = { parent = Array.make 256 0; n = 0 }

  let fresh t =
    if t.n = Array.length t.parent then begin
      let p = Array.make (2 * t.n) 0 in
      Array.blit t.parent 0 p 0 t.n;
      t.parent <- p
    end;
    let i = t.n in
    t.parent.(i) <- i;
    t.n <- i + 1;
    i

  let rec find t i =
    let p = t.parent.(i) in
    if p = i then i
    else begin
      let r = find t p in
      t.parent.(i) <- r;
      r
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.parent.(ra) <- rb
end

(* ---------- generic glue graph ------------------------------------------ *)

(* A glue element: a real transistor (tag encodes type and, with sizes,
   geometry) or a matched-cell pseudo-device (tag encodes which pairing).
   Terminals carry a role so a pseudo-device's symmetric pins stay
   interchangeable while distinct pins stay distinct. *)
type gdev = { gtag : int; gterms : (int * int) list (* (role, net) *) }

type gside = {
  g_nets : int;  (** net count *)
  g_names : (int * string) list;  (** (net, name) *)
  g_devs : gdev array;
}

let glue_colors ?cancel ~nets ~seed devs =
  let g = Refine.graph ~nets (Array.map snd devs) in
  let off = g.Refine.dev_off in
  let ncolor = Array.init nets seed in
  let dcolor = Array.map fst devs in
  ignore
    (Refine.run ?cancel g ~net_color:ncolor ~dev_color:dcolor (fun k ->
         mix dcolor.(k) (Refine.hash_role_terms g ncolor off.(k) off.(k + 1))));
  Refine.sort dcolor 0 (Array.length dcolor);
  (Refine.used_net_multiset g ncolor, dcolor)

(* Seeded refinement over a glue graph pair; [true] = the color multisets
   correspond.  Mirrors Match.run's loop with (role, net) terminal lists
   instead of fixed gate/source/drain. *)
let glue_compare ?cancel ~vdd ~gnd a b =
  (* seeds: a name on exactly one net of EACH side pins the pair; the
     rails pin through their configured names *)
  let names_of side =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (n, name) ->
        let key = String.uppercase_ascii name in
        Hashtbl.replace tbl key
          (match Hashtbl.find_opt tbl key with
          | None -> `One n
          | Some (`One m) when m = n -> `One n
          | Some _ -> `Many))
      side.g_names;
    tbl
  in
  let ta = names_of a and tb = names_of b in
  let seed_of tbl =
    let seeds = Hashtbl.create 32 in
    Hashtbl.iter
      (fun key v ->
        match (v, Hashtbl.find_opt (if tbl == ta then tb else ta) key) with
        | `One n, Some (`One _) ->
            let color =
              if key = String.uppercase_ascii vdd then 0x56DD
              else if key = String.uppercase_ascii gnd then 0x06ED
              else Refine.str_code key
            in
            Hashtbl.replace seeds n color
        | _ -> ())
      tbl;
    seeds
  in
  let sa = seed_of ta and sb = seed_of tb in
  let colors side seeds =
    glue_colors ?cancel ~nets:side.g_nets
      ~seed:(fun n ->
        match Hashtbl.find_opt seeds n with Some c -> c | None -> 0)
      (Array.map (fun d -> (d.gtag, d.gterms)) side.g_devs)
  in
  colors a sa = colors b sb

(* ---------- cell pairing ------------------------------------------------ *)

type pairing = {
  pr_cell : int;  (** index into the reference view's cells *)
  pr_lay_roles : (int * int) list;
      (** (export local net, role) — colorless (inert) exports omitted *)
  pr_ref_roles : (int * int) list;  (** (pin index, role), inert omitted *)
}

(* ---------- main -------------------------------------------------------- *)

let flat_fallback ?cancel ?with_sizes ?tolerance ~vdd ~gnd ?max_findings
    ~layout ~reference ~cell_findings () =
  let flat = Hier.flatten layout in
  let r =
    Match.run ?cancel ?with_sizes ?tolerance ~vdd ~gnd ?max_findings
      ~layout:flat ~reference ()
  in
  let r =
    if r.Match.outcome = Match.Mismatch && cell_findings <> [] then
      { r with Match.findings = cell_findings @ r.Match.findings }
    else r
  in
  r

let run ?cancel ?(with_sizes = true) ?(tolerance = 0.) ?(vdd = "VDD")
    ?(gnd = "GND") ?max_findings ~layout ~reference ?ref_view () =
  Trace.with_span "lvs.hier" @@ fun () ->
  let matches = ref 0 and hits = ref 0 in
  let finish ~fallback r =
    { r; cell_matches = !matches; cell_hits = !hits; fallback }
  in
  match ref_view with
  | None ->
      finish ~fallback:true
        (flat_fallback ?cancel ~with_sizes ~tolerance ~vdd ~gnd ?max_findings
           ~layout ~reference ~cell_findings:[] ())
  | Some (view : Reference.hview) ->
      (* the layout's parts by name; composite parts flatten through it,
         validated once *)
      let parts_index = Hier.index layout in
      let find_part name =
        match Hier.find parts_index name with
        | p -> Some p
        | exception Hier.Error _ -> None
      in
      (* names the reference knows anywhere (flat): a layout name shared
         with these must not disappear inside a substituted cell, or the
         flat compare could have used it as a seed we just hid *)
      let ref_names = Hashtbl.create 64 in
      Array.iter
        (fun (n : Circuit.net) ->
          List.iter
            (fun nm -> Hashtbl.replace ref_names (String.uppercase_ascii nm) ())
            n.Circuit.names)
        reference.Circuit.nets;
      (* interior circuit of a part, with the flat net index of each
         export *)
      let interior_of (p : Hier.part) =
        if p.Hier.instances = [] then begin
          let names = Array.make p.Hier.net_count [] in
          List.iter
            (fun (n, nm) ->
              if n >= 0 && n < p.Hier.net_count then names.(n) <- nm :: names.(n))
            (List.rev p.Hier.net_names);
          let nets =
            Array.init p.Hier.net_count (fun i ->
                {
                  Circuit.names = names.(i);
                  location = Ace_geom.Point.make i 0;
                  geometry = [];
                })
          in
          let devices =
            p.Hier.devices
            |> List.map (fun (d : Hier.hdevice) ->
                   {
                     Circuit.dtype = d.Hier.dtype;
                     gate = d.Hier.gate;
                     source = d.Hier.source;
                     drain = d.Hier.drain;
                     length = d.Hier.length;
                     width = d.Hier.width;
                     location = d.Hier.location;
                     geometry = [];
                   })
            |> Array.of_list
          in
          ({ Circuit.name = p.Hier.part_name; devices; nets }, p.Hier.exports)
        end
        else begin
          let c, root_nets =
            Hier.flatten_sub parts_index p.Hier.part_name
          in
          (c, List.map (fun e -> root_nets.(e)) p.Hier.exports)
        end
      in
      (* one pairing attempt per distinct fingerprint *)
      let memo : (int, pairing option) Hashtbl.t = Hashtbl.create 16 in
      let claimed : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let mismatched = ref [] (* (part name, cell name), first per part *) in
      let unmatched = ref [] (* leaf part names with no candidate *) in
      let inst_counts = Hashtbl.create 16 in
      let try_pair (p : Hier.part) =
        let n_pins = List.length p.Hier.exports in
        let candidates =
          view.Reference.hv_cells |> Array.to_list
          |> List.mapi (fun i c -> (i, c))
          |> List.filter (fun (_, (c : Reference.hcell)) ->
                 List.length c.Reference.hc_pins = n_pins && n_pins > 0)
        in
        if candidates = [] then begin
          if p.Hier.instances = [] && p.Hier.devices <> [] then
            unmatched := p.Hier.part_name :: !unmatched;
          None
        end
        else begin
          let interior, ex_nets = interior_of p in
          let rec try_all = function
            | [] -> None
            | (ci, (cell : Reference.hcell)) :: rest ->
                if Hashtbl.mem claimed ci then try_all rest
                else begin
                  incr matches;
                  Trace.incr Trace.Counter.Lvs_cell_matches;
                  let res, cols_a, cols_b =
                    Match.run_full ?cancel ~with_sizes ~tolerance ~vdd ~gnd
                      ~max_findings:0 ~layout:interior
                      ~reference:cell.Reference.hc_body ()
                  in
                  if res.Match.outcome <> Match.Clean then begin
                    if
                      res.Match.outcome = Match.Mismatch
                      && not
                           (List.mem_assoc p.Hier.part_name !mismatched)
                    then
                      mismatched :=
                        (p.Hier.part_name, cell.Reference.hc_name)
                        :: !mismatched;
                    try_all rest
                  end
                  else begin
                    let color_a = Hashtbl.create 16
                    and color_b = Hashtbl.create 16 in
                    List.iter (fun (n, c) -> Hashtbl.replace color_a n c) cols_a;
                    List.iter (fun (n, c) -> Hashtbl.replace color_b n c) cols_b;
                    let lay_roles =
                      List.filter_map
                        (fun (local, flat) ->
                          match Hashtbl.find_opt color_a flat with
                          | Some c -> Some (local, c)
                          | None -> None)
                        (List.combine p.Hier.exports ex_nets)
                    in
                    let ref_roles =
                      cell.Reference.hc_pin_nets |> Array.to_list
                      |> List.mapi (fun k n -> (k, n))
                      |> List.filter_map (fun (k, n) ->
                             match Hashtbl.find_opt color_b n with
                             | Some c -> Some (k, c)
                             | None -> None)
                    in
                    let roles l = List.sort Int.compare (List.map snd l) in
                    (* soundness guard: a non-boundary net sharing a color
                       with a boundary pin means the automorphism that
                       would justify permuting equal-role pins can drag a
                       pin onto a HIDDEN interior net — the pseudo-device
                       cannot represent that coupling, so refuse the
                       summary and let the flat compare decide *)
                    let interior_leak cols pins =
                      let pin_set = Hashtbl.create 8 in
                      List.iter (fun n -> Hashtbl.replace pin_set n ()) pins;
                      let pin_colors = Hashtbl.create 8 in
                      List.iter
                        (fun (n, c) ->
                          if Hashtbl.mem pin_set n then
                            Hashtbl.replace pin_colors c ())
                        cols;
                      List.exists
                        (fun (n, c) ->
                          (not (Hashtbl.mem pin_set n))
                          && Hashtbl.mem pin_colors c)
                        cols
                    in
                    (* soundness guard: a pin with device terminals in the
                       UNREDUCED interior but absent from the comparison
                       nets was reduced away (e.g. a series merge through
                       the boundary) — the flat compare, where the net has
                       outside connections, would not have reduced it, so
                       the summary under-represents the boundary *)
                    let reduced_away (c : Circuit.t) pins colors =
                      let used =
                        Array.make (Array.length c.Circuit.nets) false
                      in
                      Array.iter
                        (fun (d : Circuit.device) ->
                          used.(d.Circuit.gate) <- true;
                          used.(d.Circuit.source) <- true;
                          used.(d.Circuit.drain) <- true)
                        c.Circuit.devices;
                      List.exists
                        (fun n ->
                          n >= 0
                          && n < Array.length used
                          && used.(n)
                          && not (Hashtbl.mem colors n))
                        pins
                    in
                    if
                      roles lay_roles <> roles ref_roles
                      || interior_leak cols_a ex_nets
                      || interior_leak cols_b
                           (Array.to_list cell.Reference.hc_pin_nets)
                      || reduced_away interior ex_nets color_a
                      || reduced_away cell.Reference.hc_body
                           (Array.to_list cell.Reference.hc_pin_nets)
                           color_b
                    then try_all rest
                    else begin
                      Hashtbl.replace claimed ci 1;
                      Some { pr_cell = ci; pr_lay_roles = lay_roles; pr_ref_roles = ref_roles }
                    end
                  end
                end
          in
          try_all candidates
        end
      in
      let pairing_for (p : Hier.part) =
        let fp = Hext.cell_fingerprint p in
        match Hashtbl.find_opt memo fp with
        | Some entry ->
            (match entry with
            | Some _ ->
                incr hits;
                Trace.incr Trace.Counter.Lvs_cell_hits
            | None -> ());
            entry
        | None ->
            let entry = try_pair p in
            Hashtbl.replace memo fp entry;
            entry
      in
      (* layout traversal: expand unpaired parts, substitute paired ones *)
      let uf = Uf.create () in
      let obstructed = ref false in
      let lay_names = ref [] in
      let lay_real = ref [] (* (dtype, l, w, g, s, d) over uf nodes *) in
      let lay_pseudo = ref [] (* (cell index, (role, uf node) list) *) in
      let count_inst name =
        Hashtbl.replace inst_counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt inst_counts name))
      in
      let rec expand (p : Hier.part) (lmap : int array) =
        List.iter
          (fun (n, nm) -> lay_names := (lmap.(n), nm) :: !lay_names)
          p.Hier.net_names;
        List.iter
          (fun (d : Hier.hdevice) ->
            lay_real :=
              ( d.Hier.dtype,
                d.Hier.length,
                d.Hier.width,
                lmap.(d.Hier.gate),
                lmap.(d.Hier.source),
                lmap.(d.Hier.drain) )
              :: !lay_real)
          p.Hier.devices;
        List.iter
          (fun (inst : Hier.instance) ->
            if not !obstructed then begin
              match find_part inst.Hier.part_name with
              | None -> obstructed := true
              | Some child -> (
                  count_inst child.Hier.part_name;
                  match pairing_for child with
                  | Some pr ->
                      (* bind exports through the net map; unbound exports
                         dangle on fresh nets *)
                      let bound = Hashtbl.create 8 in
                      List.iter
                        (fun (inner, outer) ->
                          match Hashtbl.find_opt bound inner with
                          | Some prev -> Uf.union uf prev lmap.(outer)
                          | None -> Hashtbl.replace bound inner lmap.(outer))
                        inst.Hier.net_map;
                      (* an inner binding that is not an export would mean
                         glue reaches into the cell: hide nothing *)
                      Hashtbl.iter
                        (fun inner _ ->
                          if not (List.mem inner child.Hier.exports) then
                            obstructed := true)
                        bound;
                      (* interior names the reference also knows must not
                         vanish from the compare *)
                      List.iter
                        (fun (n, nm) ->
                          if
                            (not (Hashtbl.mem bound n))
                            && Hashtbl.mem ref_names
                                 (String.uppercase_ascii nm)
                          then obstructed := true
                          else
                            match Hashtbl.find_opt bound n with
                            | Some g -> lay_names := (g, nm) :: !lay_names
                            | None -> ())
                        child.Hier.net_names;
                      let net_of_export e =
                        match Hashtbl.find_opt bound e with
                        | Some g -> g
                        | None -> Uf.fresh uf
                      in
                      let terms =
                        List.map
                          (fun (local, role) -> (role, net_of_export local))
                          pr.pr_lay_roles
                      in
                      lay_pseudo := (pr.pr_cell, terms) :: !lay_pseudo
                  | None ->
                      let cmap = Array.make child.Hier.net_count (-1) in
                      List.iter
                        (fun (inner, outer) ->
                          if cmap.(inner) >= 0 then
                            Uf.union uf cmap.(inner) lmap.(outer)
                          else cmap.(inner) <- lmap.(outer))
                        inst.Hier.net_map;
                      for i = 0 to child.Hier.net_count - 1 do
                        if cmap.(i) < 0 then cmap.(i) <- Uf.fresh uf
                      done;
                      expand child cmap)
            end)
          p.Hier.instances
      in
      let attempt () =
        let top = find_part layout.Hier.top in
        match top with
        | None ->
            obstructed := true;
            None
        | Some top ->
            let tmap =
              Array.init top.Hier.net_count (fun _ -> Uf.fresh uf)
            in
            expand top tmap;
            if !obstructed then None
            else begin
              (* every reference cell instance must be paired, or the
                 pseudo-devices cannot correspond *)
              let all_paired =
                List.for_all
                  (fun (hi : Reference.hinst) ->
                    Hashtbl.mem claimed hi.Reference.hi_cell)
                  view.Reference.hv_insts
              in
              if not all_paired then None
              else begin
                (* compress layout glue nets *)
                let dense = Hashtbl.create 64 in
                let n_dense = ref 0 in
                let nd i =
                  let r = Uf.find uf i in
                  match Hashtbl.find_opt dense r with
                  | Some k -> k
                  | None ->
                      let k = !n_dense in
                      Hashtbl.replace dense r k;
                      incr n_dense;
                      k
                in
                let dev_tag dtype l w =
                  let t = Refine.type_code dtype in
                  if with_sizes then mix (mix (mix 101 t) l) w else mix 101 t
                in
                let lay_devs =
                  List.map
                    (fun (dt, l, w, g, s, d) ->
                      {
                        gtag = dev_tag dt l w;
                        gterms = [ (1, nd g); (2, nd s); (2, nd d) ];
                      })
                    !lay_real
                  @ List.map
                      (fun (cell, terms) ->
                        {
                          gtag = mix 201 cell;
                          gterms =
                            List.map (fun (role, n) -> (role, nd n)) terms;
                        })
                      !lay_pseudo
                in
                let lay_side =
                  {
                    g_nets = !n_dense;
                    g_names =
                      List.filter_map
                        (fun (n, nm) ->
                          match Hashtbl.find_opt dense (Uf.find uf n) with
                          | Some k -> Some (k, nm)
                          | None -> None)
                        !lay_names;
                    g_devs = Array.of_list lay_devs;
                  }
                in
                (* reference glue side *)
                let pair_of_cell = Hashtbl.create 8 in
                Hashtbl.iter
                  (fun _ entry ->
                    match entry with
                    | Some pr -> Hashtbl.replace pair_of_cell pr.pr_cell pr
                    | None -> ())
                  memo;
                let ref_devs =
                  (view.Reference.hv_glue.Circuit.devices |> Array.to_list
                  |> List.map (fun (d : Circuit.device) ->
                         {
                           gtag =
                             dev_tag d.Circuit.dtype d.Circuit.length
                               d.Circuit.width;
                           gterms =
                             [
                               (1, d.Circuit.gate);
                               (2, d.Circuit.source);
                               (2, d.Circuit.drain);
                             ];
                         }))
                  @ List.filter_map
                      (fun (hi : Reference.hinst) ->
                        match
                          Hashtbl.find_opt pair_of_cell hi.Reference.hi_cell
                        with
                        | None -> None
                        | Some pr ->
                            Some
                              {
                                gtag = mix 201 pr.pr_cell;
                                gterms =
                                  List.map
                                    (fun (k, role) ->
                                      (role, hi.Reference.hi_nets.(k)))
                                    pr.pr_ref_roles;
                              })
                      view.Reference.hv_insts
                in
                let ref_side =
                  {
                    g_nets =
                      Array.length view.Reference.hv_glue.Circuit.nets;
                    g_names =
                      view.Reference.hv_glue.Circuit.nets |> Array.to_list
                      |> List.mapi (fun i (n : Circuit.net) ->
                             List.map (fun nm -> (i, nm)) n.Circuit.names)
                      |> List.concat;
                    g_devs = Array.of_list ref_devs;
                  }
                in
                if glue_compare ?cancel ~vdd ~gnd lay_side ref_side then
                  Some (lay_side, ref_side)
                else None
              end
            end
      in
      let verdict = attempt () in
      (match cancel with Some c -> Cancel.check c | None -> ());
      (match verdict with
      | Some (lay_side, ref_side) ->
          let stats =
            {
              Match.layout_devices = Array.length lay_side.g_devs;
              ref_devices = Array.length ref_side.g_devs;
              layout_nets = lay_side.g_nets;
              ref_nets = ref_side.g_nets;
              reductions = 0;
              rounds = 0;
              matched = Array.length lay_side.g_devs;
            }
          in
          finish ~fallback:false
            { Match.outcome = Match.Clean; findings = []; stats }
      | None ->
          (* assemble the cell-level findings the flat report will carry
             when it does mismatch *)
          let cell_findings =
            List.rev_map
              (fun (part, cell) ->
                let n =
                  Option.value ~default:1
                    (Hashtbl.find_opt inst_counts part)
                in
                {
                  Match.code = "lvs-cell-mismatch";
                  severity = Diag.Error;
                  message =
                    Printf.sprintf
                      "cell %s (%d instance%s) does not match reference \
                       subcircuit %s"
                      part n
                      (if n = 1 then "" else "s")
                      cell;
                  anchor = part;
                  layout_net = None;
                })
              !mismatched
            @ List.rev_map
                (fun part ->
                  let n =
                    Option.value ~default:1
                      (Hashtbl.find_opt inst_counts part)
                  in
                  {
                    Match.code = "lvs-cell-unmatched";
                    severity = Diag.Hint;
                    message =
                      Printf.sprintf
                        "cell %s (%d instance%s) has no reference \
                         subcircuit with a matching pin count; compared \
                         flat"
                        part n
                        (if n = 1 then "" else "s");
                    anchor = part;
                    layout_net = None;
                  })
                !unmatched
          in
          finish ~fallback:true
            (flat_fallback ?cancel ~with_sizes ~tolerance ~vdd ~gnd
               ?max_findings ~layout ~reference ~cell_findings ()))
