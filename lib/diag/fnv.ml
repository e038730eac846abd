let prime = 0x100000001b3L

(* Plain loops over a local ref: the compiler keeps [h] unboxed, where a
   ref captured by a [String.iter] closure boxes an Int64 per byte.  The
   "\x00" between parts xors in zero, so it is one multiply. *)
let hex64_parts parts =
  let parts = Array.of_list parts in
  let h = ref 0xcbf29ce484222325L in
  for p = 0 to Array.length parts - 1 do
    if p > 0 then h := Int64.mul !h prime;
    let s = Array.unsafe_get parts p in
    for i = 0 to String.length s - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
          prime
    done
  done;
  Printf.sprintf "%016Lx" !h

let hex64 s = hex64_parts [ s ]
