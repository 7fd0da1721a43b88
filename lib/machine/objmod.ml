(** Object-module ("loader record") format.

    The paper's Loader Record Generator emits "standard system loader
    records" (MTS / OS-360 style).  We model the three record kinds the
    code generator needs: ESD (module name, origin, length), TXT (a run of
    code or data bytes at an address) and END (entry point).  Records can
    be serialized to a printable card-image-like text form and parsed back;
    {!load} places a module into a memory image. *)

type record =
  | Esd of { name : string; origin : int; length : int }
  | Txt of { addr : int; bytes : string }  (** raw bytes, address-relative *)
  | End of { entry : int }

type t = record list

let pp_record ppf = function
  | Esd { name; origin; length } ->
      Fmt.pf ppf "ESD %s %06X %06X" name origin length
  | Txt { addr; bytes } ->
      Fmt.pf ppf "TXT %06X %02X " addr (String.length bytes);
      String.iter (fun c -> Fmt.pf ppf "%02X" (Char.code c)) bytes
  | End { entry } -> Fmt.pf ppf "END %06X" entry

let pp ppf t = Fmt.(vbox (list ~sep:cut pp_record)) ppf t
let to_string t = Fmt.str "%a" pp t

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let b = Bytes.create (n / 2) in
    let bad = ref false in
    for i = 0 to (n / 2) - 1 do
      match int_of_string_opt ("0x" ^ String.sub s (2 * i) 2) with
      | Some v -> Bytes.set_uint8 b i v
      | None -> bad := true
    done;
    if !bad then Error "bad hex digit" else Ok (Bytes.to_string b)

let record_of_string line : (record, string) result =
  let parts =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  let hexint s = int_of_string_opt ("0x" ^ s) in
  match parts with
  | [ "ESD"; name; o; l ] -> (
      match (hexint o, hexint l) with
      | Some origin, Some length -> Ok (Esd { name; origin; length })
      | _ -> Error ("bad ESD record: " ^ line))
  | [ "TXT"; a; n; data ] -> (
      match (hexint a, hexint n, hex_decode data) with
      | Some addr, Some len, Ok bytes when String.length bytes = len ->
          Ok (Txt { addr; bytes })
      | _ -> Error ("bad TXT record: " ^ line))
  | [ "END"; e ] -> (
      match hexint e with
      | Some entry -> Ok (End { entry })
      | None -> Error ("bad END record: " ^ line))
  | _ -> Error ("unrecognized record: " ^ line)

let of_string s : (t, string) result =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: ls -> (
        match record_of_string l with
        | Ok r -> go (r :: acc) ls
        | Error e -> Error e)
  in
  go [] lines

(** Total TXT payload in bytes — the "object module size" used for the
    paper's Table 2 page accounting. *)
let text_bytes (t : t) =
  List.fold_left
    (fun a -> function Txt { bytes; _ } -> a + String.length bytes | _ -> a)
    0 t

let entry (t : t) =
  List.find_map (function End { entry } -> Some entry | _ -> None) t

let module_name (t : t) =
  List.find_map (function Esd { name; _ } -> Some name | _ -> None) t

(** [load mem ~at t] relocates and copies the module's TXT payload into
    [mem]: each TXT record lands at [at + addr - origin].  Returns the
    absolute entry address. *)
let load (mem : Bytes.t) ~(at : int) (t : t) : (int, string) result =
  let origin =
    List.find_map
      (function Esd { origin; _ } -> Some origin | _ -> None)
      t
    |> Option.value ~default:0
  in
  let reloc a = at + a - origin in
  let exception Bad of string in
  try
    List.iter
      (function
        | Txt { addr; bytes } ->
            let dst = reloc addr in
            if dst < 0 || dst + String.length bytes > Bytes.length mem then
              raise (Bad (Fmt.str "TXT record out of memory bounds at %06X" addr))
            else Bytes.blit_string bytes 0 mem dst (String.length bytes)
        | Esd _ | End _ -> ())
      t;
    match entry t with
    | Some e -> Ok (reloc e)
    | None -> Error "object module has no END record"
  with Bad m -> Error m

(** Build an object module from a finished code image. *)
let of_code ?(name = "MAIN") ?(origin = 0) ~(entry : int) (code : Bytes.t) : t
    =
  let len = Bytes.length code in
  let chunk = 56 (* bytes per TXT record, card-image tradition *) in
  (* consed from the last record back, so the list is built once *)
  let rec txts pos acc =
    if pos < 0 then acc
    else
      let bytes = Bytes.sub_string code pos (min chunk (len - pos)) in
      txts (pos - chunk) (Txt { addr = origin + pos; bytes } :: acc)
  in
  let last = if len = 0 then -1 else (len - 1) / chunk * chunk in
  Esd { name; origin; length = len }
  :: txts last [ End { entry = origin + entry } ]
