(* The observability layer: Metrics counters merge across pool domains,
   tracing produces balanced, well-formed Chrome trace JSON, everything
   is a no-op when disabled, and the counter aggregates of a batch are
   identical whether it runs sequentially or fanned over a pool.

   COGG_JOBS overrides the worker count, as in test_batch.ml. *)

let jobs () =
  match Sys.getenv_opt "COGG_JOBS" with
  | Some "max" -> max 2 (Domain.recommended_domain_count ())
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let tables () = Lazy.force Util.amdahl_tables

(* every test leaves both subsystems disabled and zeroed, pass or fail *)
let with_observability ?(metrics = false) ?(trace = false) f =
  Cogg.Metrics.reset ();
  Cogg.Trace.clear ();
  Cogg.Metrics.set_enabled metrics;
  Cogg.Trace.set_enabled trace;
  Fun.protect
    ~finally:(fun () ->
      Cogg.Metrics.set_enabled false;
      Cogg.Trace.set_enabled false;
      Cogg.Metrics.reset ();
      Cogg.Trace.clear ())
    f

let c_sum = Cogg.Metrics.sum "test.trace.sum"
let c_peak = Cogg.Metrics.high_water "test.trace.peak"

let test_disabled_is_noop () =
  with_observability (fun () ->
      Cogg.Metrics.add c_sum 41;
      Cogg.Metrics.peak c_peak 41;
      let rows = Cogg.Metrics.snapshot () in
      Alcotest.(check int) "sum stays zero" 0 (List.assoc "test.trace.sum" rows);
      Alcotest.(check int) "peak stays zero" 0
        (List.assoc "test.trace.peak" rows);
      let r = Cogg.Trace.with_span "noop" (fun () -> 7) in
      Cogg.Trace.instant "nothing";
      Alcotest.(check int) "with_span still runs f" 7 r;
      Alcotest.(check int) "no events recorded" 0 (Cogg.Trace.event_count ()))

let test_counters_merge_across_domains () =
  with_observability ~metrics:true (fun () ->
      let n = 500 in
      Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
          ignore
            (Cogg.Pool.map pool
               (fun i ->
                 Cogg.Metrics.add c_sum 1;
                 Cogg.Metrics.peak c_peak i;
                 i)
               (Array.init n Fun.id)));
      (* the pool has joined: per-domain buffers outlive their domains and
         the snapshot must see every worker's contribution *)
      let rows = Cogg.Metrics.snapshot () in
      Alcotest.(check int) "sums add across domains" n
        (List.assoc "test.trace.sum" rows);
      Alcotest.(check int) "high-water merges by max" (n - 1)
        (List.assoc "test.trace.peak" rows))

let corpus_batch () =
  Array.of_list
    (List.map
       (fun (name, source) -> { Pipeline.Batch.name; source })
       Pipeline.Programs.all)

(* phase.*.us rows are wall-clock sums; everything else counts work done
   and must not depend on scheduling *)
let deterministic rows =
  List.filter
    (fun (name, _) ->
      not (String.length name >= 6 && String.sub name 0 6 = "phase."))
    rows

let test_batch_counters_independent_of_jobs () =
  let t = tables () in
  let b = corpus_batch () in
  let run ?pool () =
    with_observability ~metrics:true (fun () ->
        ignore (Pipeline.Batch.compile_all ?pool t b);
        deterministic (Cogg.Metrics.snapshot ()))
  in
  let seq = run () in
  let par = Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool -> run ~pool ()) in
  Alcotest.(check bool)
    "the batch did real work" true
    (List.assoc "driver.shifts" seq > 0);
  Alcotest.(check (list (pair string int)))
    "counters identical sequentially and under -j N" seq par

(* The 32-job batch the batch fingerprint digests: the example corpus
   cycled. *)
let batch32 () =
  let corpus = Array.of_list Pipeline.Programs.all in
  Array.init 32 (fun i ->
      let name, source = corpus.(i mod Array.length corpus) in
      { Pipeline.Batch.name; source })

(* Every nonzero work counter of the 32-job batch, pinned.  These are
   counts, not timings, so a drift in code shape (shifts, reductions,
   allocations, spills, branch sizing) fails here on any machine; the
   case above only compares two runs with each other. *)
let expected_batch32_counters =
  [
    ("codegen.compiles", 32);
    ("cse.invalidations", 8);
    ("cse.residence_hits", 32);
    ("driver.max_stack", 28);
    ("driver.parses", 32);
    ("driver.prepared_tokens", 6000);
    ("driver.reductions", 3040);
    ("driver.shifts", 9008);
    ("loader.branch_sites", 141);
    ("loader.resolutions", 32);
    ("loader.short_branches", 141);
    ("loader.sizing_passes", 32);
    ("regalloc.allocs", 1032);
    ("regalloc.busy_peak.fp", 3);
    ("regalloc.busy_peak.gp", 6);
  ]

let test_batch32_counters_pinned () =
  let t = tables () in
  let rows =
    with_observability ~metrics:true (fun () ->
        ignore (Pipeline.Batch.compile_all t (batch32 ()));
        deterministic (Cogg.Metrics.snapshot ()))
  in
  Alcotest.(check (list (pair string int)))
    "nonzero counters of the 32-job batch" expected_batch32_counters
    (List.filter (fun (_, v) -> v <> 0) rows)

let find_event events name =
  match
    List.find_opt (fun (e : Cogg.Trace.event) -> e.Cogg.Trace.ev_name = name)
      events
  with
  | Some e -> e
  | None -> Alcotest.failf "expected a %S span" name

let test_spans_balanced_and_nested () =
  let t = tables () in
  with_observability ~metrics:true ~trace:true (fun () ->
      let b =
        [| { Pipeline.Batch.name = "gcd"; source = Pipeline.Programs.gcd } |]
      in
      (match (Pipeline.Batch.compile_all t b).(0) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let events = Cogg.Trace.events () in
      Alcotest.(check bool) "events recorded" true (events <> []);
      List.iter
        (fun (e : Cogg.Trace.event) ->
          Alcotest.(check bool) "every event is a span or an instant" true
            (e.Cogg.Trace.ev_ph = 'X' || e.Cogg.Trace.ev_ph = 'i');
          Alcotest.(check bool) "durations are non-negative" true
            (e.Cogg.Trace.ev_dur >= 0.0))
        events;
      (* the per-program span must contain every pipeline phase span *)
      let compile = find_event events "compile" in
      List.iter
        (fun name ->
          let e = find_event events name in
          Alcotest.(check bool) (name ^ " nested inside compile") true
            (e.Cogg.Trace.ev_ts >= compile.Cogg.Trace.ev_ts -. 0.5
            && e.Cogg.Trace.ev_ts +. e.Cogg.Trace.ev_dur
               <= compile.Cogg.Trace.ev_ts +. compile.Cogg.Trace.ev_dur +. 0.5))
        [ "front_end"; "shape"; "linearize"; "codegen" ];
      (* with metrics on, the same spans feed the phase timing counters *)
      Alcotest.(check bool) "spans feed phase.*.us counters" true
        (List.mem_assoc "phase.codegen.us" (Cogg.Metrics.snapshot ())))

(* Codegen.generate splits its span into the benchmark's layer names:
   the parse with its emission callbacks, label resolution, listing. *)
let test_codegen_layer_spans () =
  let t = tables () in
  with_observability ~metrics:true ~trace:true (fun () ->
      (match Pipeline.compile t Pipeline.Programs.gcd with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let events = Cogg.Trace.events () in
      let codegen = find_event events "codegen" in
      let layers = [ "driver"; "loader"; "listing" ] in
      let spans = List.map (find_event events) layers in
      List.iter2
        (fun name (e : Cogg.Trace.event) ->
          Alcotest.(check string) (name ^ " category") "codegen" e.Cogg.Trace.ev_cat;
          Alcotest.(check bool) (name ^ " nested inside codegen") true
            (e.Cogg.Trace.ev_ts >= codegen.Cogg.Trace.ev_ts -. 0.5
            && e.Cogg.Trace.ev_ts +. e.Cogg.Trace.ev_dur
               <= codegen.Cogg.Trace.ev_ts +. codegen.Cogg.Trace.ev_dur +. 0.5);
          Alcotest.(check bool) (name ^ " feeds its phase counter") true
            (List.mem_assoc ("phase." ^ name ^ ".us") (Cogg.Metrics.snapshot ())))
        layers spans;
      (* in pipeline order, one after the other *)
      let rec ordered = function
        | (a : Cogg.Trace.event) :: (b :: _ as rest) ->
            Alcotest.(check bool) "layer spans run in order" true
              (a.Cogg.Trace.ev_ts +. a.Cogg.Trace.ev_dur <= b.Cogg.Trace.ev_ts +. 0.5);
            ordered rest
        | _ -> ()
      in
      ordered spans)

(* The emitter's share of the driver: one [emit] event summing the time
   inside Emit.reduce, lying within the [driver] span, and its phase
   counter; with tracing on only, the counter stays off and the event
   is still there. *)
let test_emit_accumulated_in_driver () =
  let t = tables () in
  let compile () =
    match Pipeline.compile t Pipeline.Programs.gcd with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  with_observability ~metrics:true ~trace:true (fun () ->
      compile ();
      let events = Cogg.Trace.events () in
      let driver = find_event events "driver" in
      let emit = find_event events "emit" in
      Alcotest.(check string) "emit category" "codegen" emit.Cogg.Trace.ev_cat;
      Alcotest.(check bool) "emit lies within driver" true
        (emit.Cogg.Trace.ev_ts >= driver.Cogg.Trace.ev_ts
        && emit.Cogg.Trace.ev_ts +. emit.Cogg.Trace.ev_dur
           <= driver.Cogg.Trace.ev_ts +. driver.Cogg.Trace.ev_dur +. 0.5);
      Alcotest.(check bool) "emit feeds phase.emit.us" true
        (List.mem_assoc "phase.emit.us" (Cogg.Metrics.snapshot ())));
  with_observability ~trace:true (fun () ->
      compile ();
      ignore (find_event (Cogg.Trace.events ()) "emit"));
  with_observability (fun () ->
      compile ();
      Alcotest.(check int) "nothing recorded when off" 0
        (Cogg.Trace.event_count ()))

(* A miniature JSON reader, enough to validate what Trace.to_json_string
   writes (objects, arrays, strings with escapes, numbers, literals).
   Raises [Exit] on the first malformed byte. *)
let json_validate (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else raise Exit in
  let lit w =
    let k = String.length w in
    if !pos + k <= n && String.sub s !pos k = w then pos := !pos + k
    else raise Exit
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then raise Exit
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !pos >= n then raise Exit;
      (match s.[!pos] with
      | '"' -> fin := true
      | '\\' -> incr pos (* skip the escaped character *)
      | _ -> ());
      incr pos
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Exit
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let fin = ref false in
      while not !fin do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            fin := true
        | _ -> raise Exit
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            fin := true
        | _ -> raise Exit
      done
  in
  value ();
  skip_ws ();
  if !pos <> n then raise Exit

let test_json_well_formed () =
  let t = tables () in
  with_observability ~metrics:true ~trace:true (fun () ->
      let b = corpus_batch () in
      Cogg.Pool.with_pool ~domains:(jobs ()) (fun pool ->
          ignore (Pipeline.Batch.compile_all ~pool t b));
      let json = Cogg.Trace.to_json_string () in
      Alcotest.(check bool) "has the traceEvents envelope" true
        (Util.contains json "\"traceEvents\"");
      (match json_validate json with
      | () -> ()
      | exception Exit -> Alcotest.fail "trace JSON is malformed");
      (* one JSON record per recorded event *)
      Alcotest.(check bool) "all domains contributed events" true
        (Cogg.Trace.event_count () >= Array.length b))

let test_explanation_aligned () =
  let t = tables () in
  (match Pipeline.compile t Pipeline.Programs.gcd with
  | Error m -> Alcotest.fail m
  | Ok c ->
      Alcotest.(check bool) "no explanation unless requested" true
        (c.Pipeline.gen.Cogg.Codegen.explanation = None));
  match Pipeline.compile ~explain:true t Pipeline.Programs.gcd with
  | Error m -> Alcotest.fail m
  | Ok c -> (
      match c.Pipeline.gen.Cogg.Codegen.explanation with
      | None -> Alcotest.fail "explanation missing under ~explain:true"
      | Some s ->
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' s)
          in
          Alcotest.(check int) "one annotation per code-buffer item"
            c.Pipeline.gen.Cogg.Codegen.n_items (List.length lines);
          List.iter
            (fun l ->
              Alcotest.(check bool) "every line carries its origin" true
                (Util.contains l " ; "))
            lines;
          Alcotest.(check bool) "directives are surfaced" true
            (Util.contains s "[using" || Util.contains s "need r"))

let () =
  Alcotest.run "trace"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "counters merge across domains" `Quick
            test_counters_merge_across_domains;
          Alcotest.test_case "batch counters independent of -j" `Quick
            test_batch_counters_independent_of_jobs;
          Alcotest.test_case "32-job batch counters pinned" `Quick
            test_batch32_counters_pinned;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans balanced and nested" `Quick
            test_spans_balanced_and_nested;
          Alcotest.test_case "JSON well-formed" `Quick test_json_well_formed;
          Alcotest.test_case "codegen spans named like the bench layers" `Quick
            test_codegen_layer_spans;
          Alcotest.test_case "emit accumulated inside driver" `Quick
            test_emit_accumulated_in_driver;
        ] );
      ( "explain",
        [
          Alcotest.test_case "annotations aligned with items" `Quick
            test_explanation_aligned;
        ] );
    ]
