open Ace_geom

let iter design f =
  let quantum = Design.quantum design in
  let rec walk tr elements =
    List.iter
      (fun el ->
        match el with
        | Ast.Shape { layer; shape } -> (
            match Design.resolve_layer layer with
            | None -> () (* rejected by Design.of_ast; unreachable *)
            | Some lyr ->
                List.iter
                  (fun bx -> f lyr (Transform.apply_box tr bx))
                  (Shapes.boxes_of_shape ~quantum shape))
        | Ast.Call { symbol; ops } ->
            let tr' = Transform.compose tr (Design.transform_of_ops ops) in
            walk tr' (Design.symbol design symbol).Ast.elements
        | Ast.Label _ | Ast.Comment_ext _ -> ())
      elements
  in
  walk Transform.identity (Design.ast design).Ast.top_level

let flatten design =
  let acc = ref [] in
  iter design (fun lyr bx -> acc := (lyr, bx) :: !acc);
  !acc
