open Ace_netlist

(** Lenient structural-Verilog reference front end.

    Accepts the structural subset gate-level netlisters emit:
    [module]/[endmodule], [wire]/[input]/[output]/[inout] declarations,
    and instances with named ([.p(net)]) or positional port maps.  The
    gate primitives [not], [nand], [nor], and the [nmos] switch lower to
    the depletion-load transistor IR the extractor produces (pull-down
    enhancement network plus a gate-tied depletion load), so Verilog
    references feed the same {!Reduce}/{!Match} pipeline as SPICE ones.
    Lowered devices carry L=W=0, which the size audit treats as
    "unspecified" and skips.

    Parsing never raises: every malformed construct becomes a diagnostic
    with a byte span and a stable code ([lvs-ref-verilog-syntax],
    [lvs-ref-bad-portmap], [lvs-ref-unknown-primitive],
    [lvs-ref-pin-mismatch], [lvs-ref-recursive], [lvs-ref-too-large]),
    and a circuit is always produced from whatever was readable.

    The compared module is the last-defined module that is never
    instantiated (falling back to the last-defined module); the rest are
    expanded into it.  [vdd]/[gnd] (defaults ["VDD"]/["GND"]) are
    implicit global nets, and node [0] aliases ground as in SPICE.

    Expansion keeps the SPICE reader's budgets ({!Reference.max_devices}
    devices, {!Reference.max_instances} module instances): the next
    device or instance carries an [lvs-ref-too-large] error and ends the
    walk, so no instance after it adds nets, devices or diagnostics. *)

val parse :
  ?name:string ->
  ?vdd:string ->
  ?gnd:string ->
  string ->
  Circuit.t * Ace_diag.Diag.t list
