(* An aced client: newline-JSON requests over the daemon's Unix socket,
   and the checks its replies must pass. *)

type daemon = { pid : int; sock : string }
type conn = { ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX sock) with
  | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      Unix.close fd;
      raise e

let close c =
  close_out_noerr c.oc;
  close_in_noerr c.ic

(* A request is sent as parts, so a multi-megabyte CIF is escaped once per
   chip and never copied into a per-request string. *)
let call c parts =
  let t0 = Proc.now () in
  List.iter (output_string c.oc) parts;
  output_char c.oc '\n';
  flush c.oc;
  let reply = input_line c.ic in
  (reply, Proc.now () -. t0)

let extract_request ~id ~name cif_json =
  [
    Printf.sprintf "{\"id\":%d,\"op\":\"extract\",\"name\":%s,\"cif\":" id
      (Ace_serve.Proto.str name);
    cif_json;
    "}";
  ]

let cif_json (c : Inputs.chip) = Ace_serve.Proto.str (Proc.read_file c.path)

(* [aced --socket] in [dir] with the LRU cache capped at 64 MiB; returns
   once the daemon answers a ping. *)
let start ~bin ~dir =
  let sock = Filename.concat dir "aced.sock" in
  let pid =
    Proc.spawn ~stderr:(Filename.concat dir "aced.err")
      [|
        Filename.concat bin "aced.exe"; "--socket"; sock; "--cache-dir";
        Filename.concat dir "cache"; "--cache-max-mb"; "64";
      |]
  in
  let deadline = Proc.now () +. 10.0 in
  let rec ready () =
    match connect sock with
    | c ->
        let reply, _ = call c [ "{\"id\":0,\"op\":\"ping\"}" ] in
        close c;
        if not (String.starts_with ~prefix:"{\"id\":0,\"ok\":true" reply) then
          failwith ("aced: unexpected ping reply " ^ reply)
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Proc.now () < deadline ->
        Unix.sleepf 0.005;
        ready ()
  in
  ready ();
  { pid; sock }

(* Shut the daemon down and reap it; returns its peak RSS (VmHWM), read
   before the shutdown request. *)
let shutdown d =
  let hwm = Proc.vm_hwm_kib d.pid in
  let c = connect d.sock in
  ignore (call c [ "{\"id\":0,\"op\":\"shutdown\"}" ]);
  close c;
  let code = Proc.stop d.pid in
  if code <> 0 then failwith (Printf.sprintf "aced exited %d" code);
  hwm

(* ---- reply inspection ------------------------------------------------

   Replies are rendered by Ace_serve.Proto in a fixed field order:
   {"id":..,"ok":true,"op":"extract","cached":B,"result":{...},"diags":[..]}.
   Inside JSON strings every quote is escaped, so a key pattern such as
   [,"nets":] can only match a real key. *)

let matches_at s i sub =
  let rec go k = k = String.length sub || (s.[i + k] = sub.[k] && go (k + 1)) in
  go 0

let find s sub =
  let last = String.length s - String.length sub in
  let rec go i =
    if i > last then None else if matches_at s i sub then Some i else go (i + 1)
  in
  go 0

(* Searching from the end reaches the payload's trailing fields without
   scanning a multi-megabyte wirelist. *)
let rfind s sub =
  let rec go i =
    if i < 0 then None else if matches_at s i sub then Some i else go (i - 1)
  in
  go (String.length s - String.length sub)

let head reply =
  match find reply "\"result\":" with
  | Some i -> String.sub reply 0 i
  | None -> String.sub reply 0 (min 300 (String.length reply))

(* The result object's raw bytes: warm replies must splice exactly the
   bytes the cold reply carried. *)
let result_bytes reply =
  match (find reply "\"result\":", rfind reply ",\"diags\":") with
  | Some i, Some j when j > i + 9 -> String.sub reply (i + 9) (j - i - 9)
  | _ -> ""

let int_field reply key =
  let pat = Printf.sprintf ",\"%s\":" key in
  match rfind reply pat with
  | None -> None
  | Some i ->
      let start = i + String.length pat in
      let stop = ref start in
      while !stop < String.length reply && reply.[!stop] >= '0' && reply.[!stop] <= '9' do
        incr stop
      done;
      int_of_string_opt (String.sub reply start (!stop - start))

let check_head ~cached reply =
  let h = head reply in
  let has p = Option.is_some (find h p) in
  if not (has "\"ok\":true") then Error ("error reply " ^ h)
  else if not (has (Printf.sprintf "\"cached\":%b," cached)) then
    Error (Printf.sprintf "expected cached:%b, got %s" cached h)
  else Ok ()

(* A cold reply: ok, computed, with the golden device and net counts. *)
let check_cold (g : Inputs.golden) reply =
  Result.bind (check_head ~cached:false reply) (fun () ->
      match (int_field reply "devices", int_field reply "nets") with
      | Some d, Some n when d = g.devices && n = g.nets -> Ok ()
      | d, n ->
          let s = function Some x -> string_of_int x | None -> "?" in
          Error
            (Printf.sprintf "%s devices / %s nets, golden %d / %d" (s d) (s n)
               g.devices g.nets))

(* A warm reply: ok, from the cache, with the cold reply's result bytes. *)
let check_warm ~primed reply =
  Result.bind (check_head ~cached:true reply) (fun () ->
      if result_bytes reply = primed then Ok ()
      else Error "warm result bytes differ from the cold reply's")
