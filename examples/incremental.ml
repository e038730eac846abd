(* Incremental extraction — ACE §6's closing note made concrete.

   "As a result of its higher performance, it is not unusual to see a user
   with a 5,000 transistor chip go through a few iterations of extracting,
   simulating, and fixing bugs during a single two-hour session."  With
   HEXT's content-keyed window table made persistent, each iteration after
   the first only pays for the windows the edit touched.

   This example simulates three edit iterations on a random-logic chip:
   extract, "fix a bug" (replace one cell's decoration), re-extract through
   the same cache, and check the result against a cold flat extraction. *)

open Ace_tech

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* an edit: drop a decorative metal stub on cell [k]'s frame *)
let edit file k =
  let b = 250 in
  let x = 4 + (k mod 17 * 16) and y = 20 + (k / 17 * 30) in
  {
    file with
    Ace_cif.Ast.top_level =
      file.Ace_cif.Ast.top_level
      @ [
          Ace_cif.Ast.Shape
            {
              layer = Layer.to_cif_name Layer.Metal;
              shape =
                Ace_cif.Ast.Box
                  {
                    length = 2 * b;
                    width = 3 * b;
                    center = Ace_geom.Point.make ((x + 1) * b) ((y + 1) * b);
                    direction = None;
                  };
            };
        ];
  }

let () =
  let base = Ace_workloads.Chips.random_logic ~cells:250 ~seed:11 () in
  let cache = Ace_hext.Hext.create_cache () in
  let versions =
    [ base; edit base 3; edit (edit base 3) 100; edit (edit (edit base 3) 100) 42 ]
  in
  List.iteri
    (fun i file ->
      let design = Ace_cif.Design.of_ast file in
      let (circuit, stats), elapsed =
        time (fun () -> Ace_hext.Hext.extract_flat ~cache design)
      in
      let flat = Ace_core.Extractor.extract design in
      Printf.printf
        "%s: %.4f s — %4d windows extracted, %4d composes, %5d redundant \
         windows served from the table — %s\n"
        (if i = 0 then "initial extraction " else
           Printf.sprintf "after edit %d       " i)
        elapsed stats.Ace_hext.Hext.leaf_extractions stats.compose_calls
        stats.window_hits
        (Ace_lvs.Match.verdict_to_string
           (Ace_lvs.Match.exact ~with_sizes:true flat circuit)))
    versions;
  print_endline
    "\nonly the windows covering each edit are re-analyzed; everything else\n\
     comes from the persistent window and compose tables"
