type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 64 0; len = 0 }

let push b v =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  Array.unsafe_set b.data b.len v;
  b.len <- b.len + 1
