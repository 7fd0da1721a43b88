(** Structured tracing: spans and instant events in Chrome trace-event
    form (the event side of the observability layer; {!Metrics} holds the
    aggregates).

    Events accumulate in per-domain buffers ([Domain.DLS]) registered
    under a mutex on first use; like {!Metrics} buffers they outlive
    their domain, so a batch fanned over a {!Pool} traces correctly —
    [write_json] after the region has joined merges every worker's
    events into one timestamp-sorted stream, with the domain id as the
    [tid] so Perfetto/about:tracing lays workers out as separate rows.

    When disabled (the default) every entry point is a single relaxed
    [Atomic.get] and no event is allocated. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;  (** ['X'] complete span, ['i'] instant *)
  ev_ts : float;  (** microseconds since the trace epoch *)
  ev_dur : float;  (** microseconds; 0 for instants *)
  ev_tid : int;  (** domain id *)
  ev_args : (string * string) list;
}

type buffer = { b_tid : int; mutable b_events : event list }
type registry = { mutable buffers : buffer list }

let mu = Mutex.create ()
let registry = { buffers = [] }
let enabled_flag = Atomic.make false
let epoch = Atomic.make 0.0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let set_enabled b =
  if b && Atomic.get epoch = 0.0 then Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag
let now_us () = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6

let dls : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { b_tid = (Domain.self () :> int); b_events = [] } in
      locked (fun () -> registry.buffers <- b :: registry.buffers);
      b)

let record ev =
  let b = Domain.DLS.get dls in
  b.b_events <- ev :: b.b_events

let instant ?(cat = "cogg") ?(args = []) name =
  if enabled () then
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = 'i';
        ev_ts = now_us ();
        ev_dur = 0.0;
        ev_tid = (Domain.self () :> int);
        ev_args = args;
      }

(* one registration per phase name; spans are coarse (per compile phase),
   so the mutex'd lookup inside Metrics.sum is off any hot path *)
let span_metric name = Metrics.sum ("phase." ^ name ^ ".us")

let add_total ?(cat = "cogg") name ~ts ~dur =
  if enabled () then
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = 'X';
        ev_ts = ts;
        ev_dur = dur;
        ev_tid = (Domain.self () :> int);
        ev_args = [];
      };
  if Metrics.enabled () then Metrics.add (span_metric name) (int_of_float dur)

let with_span ?(cat = "cogg") ?(args = []) name (f : unit -> 'a) : 'a =
  let t_on = enabled () and m_on = Metrics.enabled () in
  if not (t_on || m_on) then f ()
  else begin
    let t0 = now_us () in
    let finish extra =
      let dur = now_us () -. t0 in
      if t_on then
        record
          {
            ev_name = name;
            ev_cat = cat;
            ev_ph = 'X';
            ev_ts = t0;
            ev_dur = dur;
            ev_tid = (Domain.self () :> int);
            ev_args = args @ extra;
          };
      if m_on then Metrics.add (span_metric name) (int_of_float dur)
    in
    match f () with
    | v ->
        finish [];
        v
    | exception e ->
        finish [ ("error", Printexc.to_string e) ];
        raise e
  end

let events () : event list =
  locked (fun () ->
      List.concat_map (fun b -> b.b_events) registry.buffers
      |> List.stable_sort (fun a b -> compare (a.ev_ts, a.ev_dur) (b.ev_ts, b.ev_dur)))

let event_count () =
  locked (fun () ->
      List.fold_left (fun n b -> n + List.length b.b_events) 0 registry.buffers)

let clear () = locked (fun () -> List.iter (fun b -> b.b_events <- []) registry.buffers)

(* -- Chrome trace-event JSON ------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_to_json b (e : event) =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f"
       (json_escape e.ev_name) (json_escape e.ev_cat) e.ev_ph e.ev_ts);
  if e.ev_ph = 'X' then Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" e.ev_dur);
  if e.ev_ph = 'i' then Buffer.add_string b ",\"s\":\"t\"";
  Buffer.add_string b (Printf.sprintf ",\"pid\":0,\"tid\":%d" e.ev_tid);
  (match e.ev_args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_json_string () : string =
  let evs = events () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      event_to_json b e)
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json_string ()))
