(* The loops below only read a word when all 8 of its bytes lie inside
   the scanned range, so the unchecked load stays in bounds.  The test
   asks whether any byte matches, which does not depend on byte order,
   so the word is read in native order. *)
external unsafe_get64 : string -> int -> int64 = "%caml_string_get64u"

let ones = 0x0101010101010101L
let highs = 0x8080808080808080L

(* Nonzero iff some byte of [w] is below [n], a byte below 0x81 repeated
   in all eight: subtracting borrows out of the lowest such byte, and no
   byte at or above [n] sets its high bit without a borrow from below. *)
let[@inline] below w n =
  Int64.logand (Int64.logand (Int64.sub w n) (Int64.lognot w)) highs

(* Nonzero iff some byte of [w] equals the byte repeated in [c]. *)
let[@inline] holds w c = below (Int64.logxor w c) ones

let quotes = 0x2222222222222222L
let backslashes = 0x5c5c5c5c5c5c5c5cL
let spaces = 0x2020202020202020L
let newlines = 0x0a0a0a0a0a0a0a0aL

let json_plain_end s i stop =
  let i = ref i in
  while
    !i <= stop - 8
    &&
    let w = unsafe_get64 s !i in
    Int64.logor (Int64.logor (holds w quotes) (holds w backslashes))
      (below w spaces)
    = 0L
  do
    i := !i + 8
  done;
  while
    !i < stop
    &&
    let c = String.unsafe_get s !i in
    c <> '"' && c <> '\\' && Char.code c >= 0x20
  do
    incr i
  done;
  !i

let newline_end s i stop =
  let i = ref i in
  while !i <= stop - 8 && holds (unsafe_get64 s !i) newlines = 0L do
    i := !i + 8
  done;
  while !i < stop && String.unsafe_get s !i <> '\n' do
    incr i
  done;
  !i
