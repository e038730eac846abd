(** Synthetic chips standing in for the papers' benchmark designs.

    The papers measured ACE and HEXT on seven chips designed in the ARPA
    community (cherry, dchip, schip2, testram, psc, scheme81, riscb).
    Those CIF files are not available, so this module generates layouts
    with controlled size and {e regularity character} — the two properties
    the algorithms' performance actually depends on:

    - {!ram_array}: a cell/row/array hierarchy of identical
      single-transistor cells (testram's character: maximal regularity);
    - {!datapath}: bit-slices of chained inverters, replicated vertically
      (riscb's character: large regular blocks);
    - {!random_logic}: per-cell jittered gates, each a unique symbol, plus
      random metal routing (cherry/schip2's character: no reuse at all);
    - {!paper_suite}: one recipe per paper chip, mixing the three sections
      to the paper's device counts (scalable with [scale]). *)

(** Single labeled inverter — the chip of ACE Figures 3-3/3-4. *)
val single_inverter : ?lambda:int -> unit -> Ace_cif.Ast.file

(** Single labeled two-input NAND / NOR / 2:1 mux cells — LVS golden
    fixtures. *)
val single_nand2 : ?lambda:int -> unit -> Ace_cif.Ast.file

val single_nor2 : ?lambda:int -> unit -> Ace_cif.Ast.file
val single_mux2 : ?lambda:int -> unit -> Ace_cif.Ast.file

(** Cross-coupled inverter pair (Q/QB), the feedback routed in poly below
    the GND rail. *)
val latch : ?lambda:int -> unit -> Ace_cif.Ast.file

(** [inverter_chain ~n] — n inverters in a row, each driving the next. *)
val inverter_chain : ?lambda:int -> n:int -> unit -> Ace_cif.Ast.file

(** The four-inverter chain of HEXT Figures 2-1/2-2, built as nested pair
    symbols (inverter → pair → pair of pairs). *)
val four_inverters : ?lambda:int -> unit -> Ace_cif.Ast.file

val ram_array : ?lambda:int -> rows:int -> cols:int -> unit -> Ace_cif.Ast.file

val datapath : ?lambda:int -> bits:int -> stages:int -> unit -> Ace_cif.Ast.file

val random_logic :
  ?lambda:int -> cells:int -> seed:int -> unit -> Ace_cif.Ast.file

(** A paper-chip recipe.  [build ~scale] generates the design with device
    count ≈ [devices_target × scale]. *)
type recipe = {
  chip_name : string;
  devices_target : int;
  character : string;  (** "regular" / "irregular" / "mixed" *)
  build : scale:float -> Ace_cif.Design.t;
}

(** The seven chips of ACE Table 5-1 / HEXT Table 5-1, in paper order. *)
val paper_suite : recipe list

(** Subset used by ACE Table 5-2 (cherry dchip schip2 testram riscb). *)
val comparison_suite : recipe list
