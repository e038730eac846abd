open Ace_geom
open Ace_tech

exception Semantic_error of string

type label = { name : string; position : Point.t; layer : Layer.t option }

type t = {
  ast : Ast.file;
  quantum : int;
  table : (int, Ast.symbol_def) Hashtbl.t;
  bbox_memo : (int, Box.t option) Hashtbl.t;
  count_memo : (int, int) Hashtbl.t;
  inst_memo : (int, int) Hashtbl.t;
}

let fail fmt = Format.kasprintf (fun m -> raise (Semantic_error m)) fmt
let ast t = t.ast
let quantum t = t.quantum
let symbol t id = Hashtbl.find t.table id
let symbol_ids t = List.map (fun (s : Ast.symbol_def) -> s.id) t.ast.symbols
let resolve_layer = Layer.of_cif_name

let transform_of_ops ops =
  List.fold_left
    (fun acc op ->
      let prim =
        match op with
        | Ast.Translate (dx, dy) -> Transform.translation ~dx ~dy
        | Ast.Mirror_x -> Transform.mirror_x
        | Ast.Mirror_y -> Transform.mirror_y
        | Ast.Rotate (a, b) ->
            (* Snap to the dominant axis; the extractor is manhattan-only. *)
            if a = 0 && b = 0 then fail "R 0 0 in a call: null direction"
            else if abs a = abs b then
              fail "45-degree call rotation R %d %d is not supported" a b
            else if abs a > abs b then Transform.rotation ~a:(compare a 0) ~b:0
            else Transform.rotation ~a:0 ~b:(compare b 0)
      in
      Transform.then_ acc prim)
    Transform.identity ops

let check_layers elements =
  List.iter
    (function
      | Ast.Shape { layer; _ } ->
          if Layer.of_cif_name layer = None then
            fail "unknown layer name %S (NMOS layers are ND NP NC NM NI NB NG)"
              layer
      | Ast.Label { layer = Some name; _ } ->
          if Layer.of_cif_name name = None then
            fail "unknown layer name %S in label" name
      | Ast.Label { layer = None; _ } | Ast.Call _ | Ast.Comment_ext _ -> ())
    elements

let check_calls table elements ~context =
  List.iter
    (function
      | Ast.Call { symbol; ops } ->
          if not (Hashtbl.mem table symbol) then
            fail "%s calls undefined symbol %d" context symbol;
          (* evaluate eagerly so unsupported rotations surface here *)
          ignore (transform_of_ops ops)
      | Ast.Shape _ | Ast.Label _ | Ast.Comment_ext _ -> ())
    elements

(* Detect recursion with a three-color DFS over the call graph. *)
let check_acyclic table top_level =
  let state = Hashtbl.create 16 in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some `Done -> ()
    | Some `Active -> fail "recursive symbol call chain through symbol %d" id
    | None ->
        Hashtbl.replace state id `Active;
        let def : Ast.symbol_def = Hashtbl.find table id in
        List.iter visit (Ast.called_symbols def.elements);
        Hashtbl.replace state id `Done
  in
  List.iter visit (Ast.called_symbols top_level);
  Hashtbl.iter (fun id _ -> visit id) table

let make ~quantum file table =
  {
    ast = file;
    quantum;
    table;
    bbox_memo = Hashtbl.create 64;
    count_memo = Hashtbl.create 64;
    inst_memo = Hashtbl.create 64;
  }

(* Coordinates beyond this bound would overflow downstream arithmetic
   (areas multiply two extents; transforms add translations), so the
   lenient path drops the offending elements.  2^30 centimicrons is about
   ten meters of silicon — far beyond any legitimate design. *)
let coord_limit = 1 lsl 30

(* No [abs]: [abs min_int] is negative, so it would pass as in range. *)
let in_range v = -coord_limit < v && v < coord_limit
let point_in_range (p : Point.t) = in_range p.x && in_range p.y

let shape_in_range = function
  | Ast.Box { length; width; center; direction } ->
      in_range length && in_range width && point_in_range center
      && (match direction with None -> true | Some d -> point_in_range d)
  | Ast.Polygon pts -> List.for_all point_in_range pts
  | Ast.Wire { width; path } ->
      in_range width && List.for_all point_in_range path
  | Ast.Round_flash { diameter; center } ->
      in_range diameter && point_in_range center

let ops_in_range ops =
  List.for_all
    (function
      | Ast.Translate (dx, dy) -> in_range dx && in_range dy
      | Ast.Rotate (a, b) -> in_range a && in_range b
      | Ast.Mirror_x | Ast.Mirror_y -> true)
    ops

(* The strict counterpart of the lenient path's range drops. *)
let check_ranges elements ~context =
  List.iter
    (function
      | Ast.Shape { shape; _ } ->
          if not (shape_in_range shape) then
            fail "%s: shape coordinates exceed the supported range" context
      | Ast.Label { name; position; _ } ->
          if not (point_in_range position) then
            fail "%s: label %S position exceeds the supported range" context
              name
      | Ast.Call { symbol; ops } ->
          if not (ops_in_range ops) then
            fail "%s: call of symbol %d has out-of-range transform" context
              symbol
      | Ast.Comment_ext _ -> ())
    elements

let of_ast_lenient ?(quantum = 125) ?max_errors (file : Ast.file) =
  let module Diag = Ace_diag.Diag in
  let module Collector = Ace_diag.Collector in
  let c = Collector.create ?max_errors () in
  let err code fmt =
    Format.kasprintf (fun m -> Collector.add c (Diag.error ~code m)) fmt
  in
  let warn code fmt =
    Format.kasprintf (fun m -> Collector.add c (Diag.warning ~code m)) fmt
  in
  let quantum =
    if quantum <= 0 then begin
      err "sem-bad-quantum" "quantum must be positive (got %d); using 125"
        quantum;
      125
    end
    else quantum
  in
  (* deduplicate symbol definitions, keeping the first of each id *)
  let table = Hashtbl.create 64 in
  let symbols =
    List.filter
      (fun (def : Ast.symbol_def) ->
        if Hashtbl.mem table def.id then begin
          err "sem-duplicate-symbol"
            "duplicate symbol definition %d (keeping the first)" def.id;
          false
        end
        else begin
          Hashtbl.add table def.id def;
          true
        end)
      file.symbols
  in
  (* drop elements with unknown layers, undefined callees, unsupported
     rotations or out-of-range coordinates *)
  let clean_elements ~context elements =
    List.filter_map
      (fun el ->
        match el with
        | Ast.Shape { layer; shape } ->
            if Layer.of_cif_name layer = None then begin
              err "sem-unknown-layer"
                "%s: unknown layer name %S (NMOS layers are ND NP NC NM NI NB \
                 NG)"
                context layer;
              None
            end
            else if not (shape_in_range shape) then begin
              warn "sem-coordinate-overflow"
                "%s: shape coordinates exceed the supported range" context;
              None
            end
            else (
              (* degenerate shapes either produce no geometry or would
                 crash the decomposer (zero-width wires, zero-diameter
                 flashes); drop them all uniformly *)
              match shape with
              | Ast.Box { length; width; _ } when length <= 0 || width <= 0 ->
                  warn "sem-degenerate-box"
                    "%s: box with zero or negative extent %dx%d produces no \
                     geometry"
                    context length width;
                  None
              | Ast.Box { direction = Some d; _ } when d.x = 0 && d.y = 0 ->
                  warn "sem-degenerate-box"
                    "%s: box with null direction vector produces no geometry"
                    context;
                  None
              | Ast.Wire { width; _ } when width <= 0 ->
                  warn "sem-degenerate-box"
                    "%s: wire with zero or negative width %d produces no \
                     geometry"
                    context width;
                  None
              | Ast.Round_flash { diameter; _ } when diameter <= 0 ->
                  warn "sem-degenerate-box"
                    "%s: roundflash with zero or negative diameter %d \
                     produces no geometry"
                    context diameter;
                  None
              | _ -> Some el)
        | Ast.Label { name; position; layer } ->
            if not (point_in_range position) then begin
              warn "sem-coordinate-overflow"
                "%s: label %S position exceeds the supported range" context
                name;
              None
            end
            else (
              match layer with
              | Some l when Layer.of_cif_name l = None ->
                  err "sem-unknown-layer"
                    "%s: unknown layer name %S in label %S" context l name;
                  Some (Ast.Label { name; position; layer = None })
              | Some _ | None -> Some el)
        | Ast.Call { symbol; ops } ->
            if not (Hashtbl.mem table symbol) then begin
              err "sem-undefined-symbol" "%s calls undefined symbol %d" context
                symbol;
              None
            end
            else if not (ops_in_range ops) then begin
              warn "sem-coordinate-overflow"
                "%s: call of symbol %d has out-of-range transform" context
                symbol;
              None
            end
            else (
              match transform_of_ops ops with
              | (_ : Transform.t) -> Some el
              | exception Semantic_error m ->
                  err "sem-bad-rotation" "%s, call of symbol %d: %s" context
                    symbol m;
                  None)
        | Ast.Comment_ext _ -> Some el)
      elements
  in
  let symbols =
    List.map
      (fun (def : Ast.symbol_def) ->
        let context = Printf.sprintf "symbol %d" def.id in
        let def = { def with Ast.elements = clean_elements ~context def.elements } in
        Hashtbl.replace table def.id def;
        def)
      symbols
  in
  let top_level = clean_elements ~context:"top level" file.top_level in
  (* break recursion: drop every call edge that closes a cycle *)
  let drop_edges = Hashtbl.create 8 in
  let state = Hashtbl.create 16 in
  let rec visit id =
    match Hashtbl.find_opt state id with
    | Some `Done -> ()
    | Some `Active -> () (* handled at the edge below *)
    | None ->
        Hashtbl.replace state id `Active;
        let def : Ast.symbol_def = Hashtbl.find table id in
        List.iter
          (fun callee ->
            match Hashtbl.find_opt state callee with
            | Some `Active ->
                err "sem-recursive-symbol"
                  "recursive symbol call chain: dropping call of %d from \
                   symbol %d"
                  callee id;
                Hashtbl.replace drop_edges (id, callee) ()
            | Some `Done -> ()
            | None -> visit callee)
          (Ast.called_symbols def.elements);
        Hashtbl.replace state id `Done
  in
  List.iter visit (Ast.called_symbols top_level);
  Hashtbl.iter (fun id _ -> visit id) table;
  let symbols =
    if Hashtbl.length drop_edges = 0 then symbols
    else
      List.map
        (fun (def : Ast.symbol_def) ->
          let elements =
            List.filter
              (function
                | Ast.Call { symbol; _ } ->
                    not (Hashtbl.mem drop_edges (def.id, symbol))
                | Ast.Shape _ | Ast.Label _ | Ast.Comment_ext _ -> true)
              def.elements
          in
          let def = { def with Ast.elements = elements } in
          Hashtbl.replace table def.id def;
          def)
        symbols
  in
  let file = { Ast.symbols; top_level } in
  (make ~quantum file table, Collector.to_list c)

let of_ast ?(quantum = 125) (file : Ast.file) =
  if quantum <= 0 then fail "quantum must be positive";
  let table = Hashtbl.create 64 in
  List.iter
    (fun (def : Ast.symbol_def) ->
      if Hashtbl.mem table def.id then fail "duplicate symbol definition %d" def.id
      else Hashtbl.add table def.id def)
    file.symbols;
  List.iter
    (fun (def : Ast.symbol_def) ->
      let context = Printf.sprintf "symbol %d" def.id in
      check_layers def.elements;
      check_ranges def.elements ~context;
      check_calls table def.elements ~context)
    file.symbols;
  check_layers file.top_level;
  check_ranges file.top_level ~context:"top level";
  check_calls table file.top_level ~context:"top level";
  check_acyclic table file.top_level;
  make ~quantum file table

let hull_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Box.hull a b)

let rec elements_bbox t elements =
  List.fold_left
    (fun acc el ->
      let b =
        match el with
        | Ast.Shape { shape; _ } -> Shapes.shape_bbox shape
        | Ast.Call { symbol; ops } -> (
            match symbol_bbox t symbol with
            | None -> None
            | Some bx -> Some (Transform.apply_box (transform_of_ops ops) bx))
        | Ast.Label { position; _ } ->
            (* labels are part of a symbol's spatial extent: a label placed
               outside the geometry (naming something a sibling provides)
               must keep its instance's bounding box covering it, or window
               partitioning could separate the label from the geometry it
               lands on.  The box is symmetric so it still covers the point
               after any orthogonal transform. *)
            Some
              (Box.make
                 ~l:(position.Point.x - 1)
                 ~b:(position.Point.y - 1)
                 ~r:(position.Point.x + 1)
                 ~t:(position.Point.y + 1))
        | Ast.Comment_ext _ -> None
      in
      hull_opt acc b)
    None elements

and symbol_bbox t id =
  match Hashtbl.find_opt t.bbox_memo id with
  | Some b -> b
  | None ->
      let def = symbol t id in
      let b = elements_bbox t def.elements in
      Hashtbl.replace t.bbox_memo id b;
      b

let bbox t = elements_bbox t t.ast.top_level

(* [scratch] holds one shape's decomposition at a time. *)
let rec elements_box_count t scratch elements =
  List.fold_left
    (fun acc el ->
      acc
      +
      match el with
      | Ast.Shape { shape; _ } ->
          scratch.Ibuf.len <- 0;
          Shapes.add_boxes ~quantum:t.quantum shape scratch;
          scratch.len / 4
      | Ast.Call { symbol; _ } -> symbol_box_count t scratch symbol
      | Ast.Label _ | Ast.Comment_ext _ -> 0)
    0 elements

and symbol_box_count t scratch id =
  match Hashtbl.find_opt t.count_memo id with
  | Some n -> n
  | None ->
      let n = elements_box_count t scratch (symbol t id).elements in
      Hashtbl.replace t.count_memo id n;
      n

let add_ints t ~(scratch : Ibuf.t) ~boxes ~calls elements =
  List.iter
    (fun (el : Ast.element) ->
      match el with
      | Ast.Shape { layer; shape } -> (
          match resolve_layer layer with
          | None -> ()
          | Some lyr ->
              scratch.len <- 0;
              Shapes.add_boxes ~quantum:t.quantum shape scratch;
              let li = Layer.index lyr in
              let i = ref 0 in
              while !i < scratch.len do
                Ibuf.push boxes li;
                for j = 0 to 3 do
                  Ibuf.push boxes scratch.data.(!i + j)
                done;
                i := !i + 4
              done)
      | Ast.Call { symbol; ops } -> (
          match symbol_bbox t symbol with
          | exception Not_found ->
              () (* undefined callee: lenient designs have dropped it *)
          | None -> () (* empty symbol: nothing will ever come out *)
          | Some bb ->
              Ibuf.push calls symbol;
              for _ = 1 to Transform.ints do
                Ibuf.push calls 0
              done;
              Transform.blit (transform_of_ops ops) calls.data
                (calls.len - Transform.ints);
              Ibuf.push calls bb.l;
              Ibuf.push calls bb.b;
              Ibuf.push calls bb.r;
              Ibuf.push calls bb.t)
      | Ast.Label _ | Ast.Comment_ext _ -> ())
    elements

let top_ints t =
  (* a counting pass sizes both buffers exactly: they live as long as
     every stream that reads them *)
  let scratch = Ibuf.create () in
  let nboxes = ref 0 and ncalls = ref 0 in
  List.iter
    (fun (el : Ast.element) ->
      match el with
      | Ast.Shape { layer; shape } ->
          if Option.is_some (resolve_layer layer) then begin
            scratch.len <- 0;
            Shapes.add_boxes ~quantum:t.quantum shape scratch;
            nboxes := !nboxes + (scratch.len / 4 * 5)
          end
      | Ast.Call { symbol; _ } -> (
          match symbol_bbox t symbol with
          | Some _ -> ncalls := !ncalls + 1 + Transform.ints + 4
          | None | (exception Not_found) -> ())
      | Ast.Label _ | Ast.Comment_ext _ -> ())
    t.ast.top_level;
  let boxes = { Ibuf.data = Array.make !nboxes 0; len = 0 }
  and calls = { Ibuf.data = Array.make !ncalls 0; len = 0 } in
  add_ints t ~scratch ~boxes ~calls t.ast.top_level;
  (boxes, calls)

let count_boxes t = elements_box_count t (Ibuf.create ()) t.ast.top_level

let rec elements_inst_count t elements =
  List.fold_left
    (fun acc el ->
      acc
      +
      match el with
      | Ast.Call { symbol; _ } -> 1 + symbol_inst_count t symbol
      | Ast.Shape _ | Ast.Label _ | Ast.Comment_ext _ -> 0)
    0 elements

and symbol_inst_count t id =
  match Hashtbl.find_opt t.inst_memo id with
  | Some n -> n
  | None ->
      let n = elements_inst_count t (symbol t id).elements in
      Hashtbl.replace t.inst_memo id n;
      n

let count_instances t = elements_inst_count t t.ast.top_level

let labels t =
  let acc = ref [] in
  let rec walk tr elements =
    List.iter
      (fun el ->
        match el with
        | Ast.Label { name; position; layer } ->
            let layer =
              match layer with None -> None | Some n -> Layer.of_cif_name n
            in
            acc := { name; position = Transform.apply tr position; layer } :: !acc
        | Ast.Call { symbol = callee; ops } ->
            let inner = (symbol t callee).Ast.elements in
            walk (Transform.compose tr (transform_of_ops ops)) inner
        | Ast.Shape _ | Ast.Comment_ext _ -> ())
      elements
  in
  walk Transform.identity t.ast.top_level;
  List.sort (fun (a : label) b -> Int.compare b.position.y a.position.y) !acc
