(** Wire protocol of the [pascd] compile service: length-prefixed
    frames, tagged payloads, big-endian integers.  See wire.mli for the
    frame grammar; this module is pure encoding plus the two blocking
    frame I/O helpers the client and the test harness share. *)

type options = { cse : bool option; checks : bool option }

let default_options = { cse = None; checks = None }

type request =
  | Compile of { id : int; options : options; source : string }
  | Stats
  | Ping
  | Pause of int
  | Hello
  | Shutdown

type outcome = (string * string, string) result

type reply =
  | Compiled of { id : int; cached : bool; outcome : outcome }
  | Overloaded of { id : int; retry_after_ms : int }
  | Stats_reply of string
  | Hello_reply of string
  | Ack
  | Bye

(* 16 MiB: far above any real listing + object image, far below what a
   corrupt length prefix could ask us to allocate *)
let max_frame = 1 lsl 24

exception Frame_too_large of int

(* -- primitive encoders ------------------------------------------------------ *)

let put_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* tri-state option byte: 0 = server default, 1 = false, 2 = true *)
let put_opt_bool b = function
  | None -> Buffer.add_char b '\000'
  | Some false -> Buffer.add_char b '\001'
  | Some true -> Buffer.add_char b '\002'

let get_opt_bool = function
  | '\000' -> Ok None
  | '\001' -> Ok (Some false)
  | '\002' -> Ok (Some true)
  | c -> Error (Printf.sprintf "bad option byte %d" (Char.code c))

(** The cache key's option component: same canonical bytes as the wire
    encoding, so distinct option sets are distinct key material. *)
let options_tag (o : options) : string =
  let b = Buffer.create 2 in
  put_opt_bool b o.cse;
  put_opt_bool b o.checks;
  Buffer.contents b

(* -- requests ----------------------------------------------------------------- *)

let encode_request (r : request) : string =
  let b = Buffer.create 64 in
  (match r with
  | Compile { id; options; source } ->
      Buffer.add_char b 'C';
      put_u32 b id;
      Buffer.add_string b (options_tag options);
      Buffer.add_string b source
  | Stats -> Buffer.add_char b 'S'
  | Ping -> Buffer.add_char b 'P'
  | Pause ms ->
      Buffer.add_char b 'Z';
      put_u32 b ms
  | Hello -> Buffer.add_char b 'H'
  | Shutdown -> Buffer.add_char b 'Q');
  Buffer.contents b

let decode_request (s : string) : (request, string) result =
  let ( let* ) = Result.bind in
  let n = String.length s in
  if n = 0 then Error "empty request frame"
  else
    match s.[0] with
    | 'C' ->
        if n < 7 then Error "truncated compile request"
        else
          let* cse = get_opt_bool s.[5] in
          let* checks = get_opt_bool s.[6] in
          Ok
            (Compile
               {
                 id = get_u32 s 1;
                 options = { cse; checks };
                 source = String.sub s 7 (n - 7);
               })
    | 'S' -> Ok Stats
    | 'P' -> Ok Ping
    | 'Z' ->
        if n < 5 then Error "truncated pause request"
        else Ok (Pause (get_u32 s 1))
    | 'H' -> Ok Hello
    | 'Q' -> Ok Shutdown
    | c -> Error (Printf.sprintf "unknown request tag %d" (Char.code c))

(* -- replies ------------------------------------------------------------------ *)

let encode_reply (r : reply) : string =
  let b = Buffer.create 256 in
  (match r with
  | Compiled { id; cached; outcome } -> (
      Buffer.add_char b 'R';
      put_u32 b id;
      Buffer.add_char b (if cached then '\001' else '\000');
      match outcome with
      | Ok (listing, code) ->
          Buffer.add_char b 'K';
          put_u32 b (String.length listing);
          Buffer.add_string b listing;
          Buffer.add_string b code
      | Error msg ->
          Buffer.add_char b 'E';
          Buffer.add_string b msg)
  | Overloaded { id; retry_after_ms } ->
      Buffer.add_char b 'O';
      put_u32 b id;
      put_u32 b retry_after_ms
  | Stats_reply text ->
      Buffer.add_char b 'T';
      Buffer.add_string b text
  | Hello_reply target ->
      Buffer.add_char b 'h';
      Buffer.add_string b target
  | Ack -> Buffer.add_char b 'A'
  | Bye -> Buffer.add_char b 'B');
  Buffer.contents b

let decode_reply (s : string) : (reply, string) result =
  let n = String.length s in
  if n = 0 then Error "empty reply frame"
  else
    match s.[0] with
    | 'R' ->
        if n < 7 then Error "truncated compile reply"
        else
          let id = get_u32 s 1 in
          let cached = s.[5] = '\001' in
          (match s.[6] with
          | 'K' ->
              if n < 11 then Error "truncated compile reply body"
              else
                let ll = get_u32 s 7 in
                if 11 + ll > n then Error "listing length out of range"
                else
                  let listing = String.sub s 11 ll in
                  let code = String.sub s (11 + ll) (n - 11 - ll) in
                  Ok (Compiled { id; cached; outcome = Ok (listing, code) })
          | 'E' ->
              Ok
                (Compiled
                   { id; cached; outcome = Error (String.sub s 7 (n - 7)) })
          | c -> Error (Printf.sprintf "bad outcome tag %d" (Char.code c)))
    | 'O' ->
        if n < 5 then Error "truncated overloaded reply"
        else
          (* pre-hint peers encode only the id; treat a missing hint as
             "retry whenever", not a decode error *)
          let retry_after_ms = if n >= 9 then get_u32 s 5 else 0 in
          Ok (Overloaded { id = get_u32 s 1; retry_after_ms })
    | 'T' -> Ok (Stats_reply (String.sub s 1 (n - 1)))
    | 'h' -> Ok (Hello_reply (String.sub s 1 (n - 1)))
    | 'A' -> Ok Ack
    | 'B' -> Ok Bye
    | c -> Error (Printf.sprintf "unknown reply tag %d" (Char.code c))

(* -- frame I/O ---------------------------------------------------------------- *)

(* Partial-transfer loops must survive signal delivery: a timer or
   profiling signal landing mid-[read]/[write] returns EINTR (OCaml
   installs handlers without SA_RESTART), and before this helper a
   signal-bombed client would tear a frame in half and desynchronize the
   stream.  Only EINTR is retried — real errors still raise. *)
let rec retry_eintr (f : unit -> 'a) : 'a =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(** Substitute for a reply whose encoding exceeds [max_frame]: same id
    and shape, but carrying a structured error the peer can actually
    receive (the read side rejects oversized frames, so sending the real
    bytes would only get the connection dropped). *)
let oversized_substitute (r : reply) ~(size : int) : reply =
  let msg =
    Printf.sprintf "reply too large for the wire (%d bytes > %d frame cap)"
      size max_frame
  in
  match r with
  | Compiled { id; cached; _ } -> Compiled { id; cached; outcome = Error msg }
  | Overloaded _ | Stats_reply _ | Hello_reply _ | Ack | Bye -> Stats_reply msg

let write_frame (fd : Unix.file_descr) (payload : string) : unit =
  let n = String.length payload in
  (* enforce the cap on the send side too: the receiver would reject the
     length prefix anyway, so raise before a single byte goes out and
     leave the stream clean for a recovery reply *)
  if n > max_frame then raise (Frame_too_large n);
  let framed = Bytes.create (4 + n) in
  Bytes.set framed 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set framed 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set framed 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set framed 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 framed 4 n;
  let total = 4 + n in
  let sent = ref 0 in
  while !sent < total do
    sent :=
      !sent + retry_eintr (fun () -> Unix.write fd framed !sent (total - !sent))
  done

let read_exact fd n ~what : string =
  let buf = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let r = retry_eintr (fun () -> Unix.read fd buf !got (n - !got)) in
    if r = 0 then failwith ("unexpected EOF reading " ^ what);
    got := !got + r
  done;
  Bytes.unsafe_to_string buf

let read_frame (fd : Unix.file_descr) : string option =
  let hdr = Bytes.create 4 in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < 4 do
    let r = retry_eintr (fun () -> Unix.read fd hdr !got (4 - !got)) in
    if r = 0 then
      if !got = 0 then eof := true
      else failwith "unexpected EOF inside frame header"
    else got := !got + r
  done;
  if !eof then None
  else
    let n =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if n > max_frame then failwith (Printf.sprintf "oversized frame (%d bytes)" n)
    else Some (read_exact fd n ~what:"frame payload")

(* -- batch fingerprint -------------------------------------------------------- *)

(** Byte-for-byte the {!Pipeline.Batch.fingerprint} construction, over
    replies instead of results; anything that is not a [Compiled] reply
    folds in its own separator so it can never collide with one. *)
let fingerprint (replies : reply array) : string =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun r ->
      match r with
      | Compiled { outcome = Ok (listing, code); _ } ->
          Buffer.add_string buf listing;
          Buffer.add_char buf '\000';
          Buffer.add_string buf code;
          Buffer.add_char buf '\001'
      | Compiled { outcome = Error m; _ } ->
          Buffer.add_string buf m;
          Buffer.add_char buf '\002'
      | Overloaded _ | Stats_reply _ | Hello_reply _ | Ack | Bye ->
          Buffer.add_char buf '\003')
    replies;
  Digest.to_hex (Digest.string (Buffer.contents buf))
