// Expansion bomb in structural Verilog: l0 holds one nmos switch, each
// of l1..l9 holds ten instances of the level below, and the top holds
// one l9: 10^9 devices.  The reader stops at its 1,000,000-device cap
// with one lvs-ref-too-large.
module l0 (a, b);
  inout a, b;
  nmos m1 (a, b, a);
endmodule
module l1 (a, b);
  inout a, b;
  l0 x0 (a, b);
  l0 x1 (a, b);
  l0 x2 (a, b);
  l0 x3 (a, b);
  l0 x4 (a, b);
  l0 x5 (a, b);
  l0 x6 (a, b);
  l0 x7 (a, b);
  l0 x8 (a, b);
  l0 x9 (a, b);
endmodule
module l2 (a, b);
  inout a, b;
  l1 x0 (a, b);
  l1 x1 (a, b);
  l1 x2 (a, b);
  l1 x3 (a, b);
  l1 x4 (a, b);
  l1 x5 (a, b);
  l1 x6 (a, b);
  l1 x7 (a, b);
  l1 x8 (a, b);
  l1 x9 (a, b);
endmodule
module l3 (a, b);
  inout a, b;
  l2 x0 (a, b);
  l2 x1 (a, b);
  l2 x2 (a, b);
  l2 x3 (a, b);
  l2 x4 (a, b);
  l2 x5 (a, b);
  l2 x6 (a, b);
  l2 x7 (a, b);
  l2 x8 (a, b);
  l2 x9 (a, b);
endmodule
module l4 (a, b);
  inout a, b;
  l3 x0 (a, b);
  l3 x1 (a, b);
  l3 x2 (a, b);
  l3 x3 (a, b);
  l3 x4 (a, b);
  l3 x5 (a, b);
  l3 x6 (a, b);
  l3 x7 (a, b);
  l3 x8 (a, b);
  l3 x9 (a, b);
endmodule
module l5 (a, b);
  inout a, b;
  l4 x0 (a, b);
  l4 x1 (a, b);
  l4 x2 (a, b);
  l4 x3 (a, b);
  l4 x4 (a, b);
  l4 x5 (a, b);
  l4 x6 (a, b);
  l4 x7 (a, b);
  l4 x8 (a, b);
  l4 x9 (a, b);
endmodule
module l6 (a, b);
  inout a, b;
  l5 x0 (a, b);
  l5 x1 (a, b);
  l5 x2 (a, b);
  l5 x3 (a, b);
  l5 x4 (a, b);
  l5 x5 (a, b);
  l5 x6 (a, b);
  l5 x7 (a, b);
  l5 x8 (a, b);
  l5 x9 (a, b);
endmodule
module l7 (a, b);
  inout a, b;
  l6 x0 (a, b);
  l6 x1 (a, b);
  l6 x2 (a, b);
  l6 x3 (a, b);
  l6 x4 (a, b);
  l6 x5 (a, b);
  l6 x6 (a, b);
  l6 x7 (a, b);
  l6 x8 (a, b);
  l6 x9 (a, b);
endmodule
module l8 (a, b);
  inout a, b;
  l7 x0 (a, b);
  l7 x1 (a, b);
  l7 x2 (a, b);
  l7 x3 (a, b);
  l7 x4 (a, b);
  l7 x5 (a, b);
  l7 x6 (a, b);
  l7 x7 (a, b);
  l7 x8 (a, b);
  l7 x9 (a, b);
endmodule
module l9 (a, b);
  inout a, b;
  l8 x0 (a, b);
  l8 x1 (a, b);
  l8 x2 (a, b);
  l8 x3 (a, b);
  l8 x4 (a, b);
  l8 x5 (a, b);
  l8 x6 (a, b);
  l8 x7 (a, b);
  l8 x8 (a, b);
  l8 x9 (a, b);
endmodule
module top (in, out);
  input in;
  output out;
  l9 x0 (in, out);
endmodule
