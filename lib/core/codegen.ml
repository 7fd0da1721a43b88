(** The generated code generator, assembled: tables + skeletal parser +
    code emission + loader record generation, end to end. *)

type result_t = {
  objmod : Machine.Objmod.t;
  resolved : Loader_gen.resolved;
  listing : string;
  outcome : Driver.outcome;
  alloc_stats : Regalloc.stats;
  n_items : int;
  explanation : string option;
      (** with [~explain:true]: the listing annotated per instruction
          with the production and directives that emitted it *)
}

let m_compiles = Metrics.sum "codegen.compiles"

type error =
  | Parse_error of Driver.error
  | Emit_failure of string
  | Resolve_failure of string

let pp_error ppf = function
  | Parse_error e -> Driver.pp_error ppf e
  | Emit_failure m -> Fmt.pf ppf "code emission failed: %s" m
  | Resolve_failure m -> Fmt.pf ppf "loader record generation failed: %s" m

(** Generate code for a linearized IF program.  The three steps run
    under {!Trace} spans named like the benchmark's layers — [driver]
    (the parse, with the template emission it calls back into),
    [loader] (label resolution and loader records) and [listing] — so
    [--trace]/[--stats] show where a compile's code generation went.
    Inside [driver], the time spent in [Emit.reduce] is summed and
    reported as the [emit] layer. *)
let generate ?(name = "MAIN") ?(strategy = Regalloc.Lru) ?dispatch
    ?(explain = false) ?on_reduce (tables : Tables.t)
    (input : Ifl.Token.t list) : (result_t, error) result =
  let span name f = Trace.with_span ~cat:"codegen" name f in
  let emitter = Emit.create ~strategy ~explain tables in
  let emit =
    match on_reduce with
    | None -> Emit.reduce emitter
    | Some f ->
        fun ~prod ~rhs ~remap ->
          f prod;
          Emit.reduce emitter ~prod ~rhs ~remap
  in
  (* the [emit] accumulator: chosen once per compile, so with tracing
     and metrics off the driver calls the emitter with nothing between *)
  let timed = Trace.enabled () || Metrics.enabled () in
  let first_us = ref (-1.0) and emit_us = ref 0.0 in
  let reduce =
    if not timed then emit
    else fun ~prod ~rhs ~remap ->
      let t0 = Trace.now_us () in
      if !first_us < 0.0 then first_us := t0;
      emit ~prod ~rhs ~remap;
      emit_us := !emit_us +. (Trace.now_us () -. t0)
  in
  let parsed =
    match
      span "driver" (fun () -> Driver.parse ?dispatch tables ~reduce input)
    with
    | Ok outcome -> Ok outcome
    | Error e -> Error (Parse_error e)
    | exception Emit.Emit_error m -> Error (Emit_failure m)
    | exception Regalloc.Pressure m -> Error (Emit_failure m)
  in
  if !first_us >= 0.0 then
    Trace.add_total ~cat:"codegen" "emit" ~ts:!first_us ~dur:!emit_us;
  let result =
    match parsed with
    | Error e -> Error e
    | Ok outcome -> (
        match span "loader" (fun () -> Emit.finish ~name emitter) with
        | Error m -> Error (Resolve_failure m)
        | Ok (objmod, resolved) ->
            let listing = span "listing" (fun () -> Emit.listing emitter) in
            Ok
              {
                objmod;
                resolved;
                listing;
                outcome;
                alloc_stats = Emit.stats emitter;
                n_items = Code_buffer.length emitter.Emit.buf;
                explanation =
                  (if explain then Some (Emit.explanation emitter) else None);
              })
  in
  Metrics.add m_compiles 1;
  Emit.flush_metrics emitter;
  result

(** Convenience: parse the textual IF syntax and generate. *)
let generate_string ?name ?strategy ?dispatch ?explain tables text :
    (result_t, string) result =
  match Ifl.Reader.program_of_string text with
  | Error m -> Error m
  | Ok tokens -> (
      match generate ?name ?strategy ?dispatch ?explain tables tokens with
      | Ok r -> Ok r
      | Error e -> Error (Fmt.str "%a" pp_error e))
