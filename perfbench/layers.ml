(* The traced run's layer decomposition.  Every span is taken here,
   around a call into one layer's public functions; nothing under lib/
   is instrumented.  The chains below replay [Pipeline.compile] /
   [Codegen.generate] and [Cogg_build.build] / [build_incremental]
   step by step, and the benchmark checks that they produce the same
   bytes as the library entry points they stand in for.

   A span adds its wall time and the minor-heap words allocated inside
   it to the layer's account.  The clock and the counter do not
   allocate, so the per-reduction spans around [Emit.reduce] leave
   the driver's allocation count untouched. *)

(* [Monotonic_clock.now], declared in this module so that it inlines
   into the spans and returns its value unboxed *)
external monotonic_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] clock_ns () = Int64.to_float (monotonic_ns ())

let compile_layers =
  [| "front_end"; "shape"; "cse_opt"; "linearize"; "driver"; "emit"; "loader";
     "listing" |]

let table_layers =
  [| "spec_parse"; "symtab"; "grammar"; "lr0"; "parse_table"; "template";
     "compress"; "spec_hash" |]

let names = Array.append compile_layers table_layers

let id name =
  let rec go i =
    if i = Array.length names then invalid_arg name
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let front_end = id "front_end"
let shape = id "shape"
let cse_opt = id "cse_opt"
let linearize = id "linearize"
let driver = id "driver"
let emit = id "emit"
let loader = id "loader"
let listing = id "listing"
let spec_parse = id "spec_parse"
let symtab = id "symtab"
let grammar = id "grammar"
let lr0 = id "lr0"
let parse_table = id "parse_table"
let template = id "template"
let compress = id "compress"
let spec_hash = id "spec_hash"

(* Per-layer self time (ns) and minor words, plus named counts. *)
type acc = {
  ns : float array;
  words : float array;
  counts : (string, float) Hashtbl.t;
}

let acc () =
  {
    ns = Array.make (Array.length names) 0.;
    words = Array.make (Array.length names) 0.;
    counts = Hashtbl.create 32;
  }

let count a name v =
  Hashtbl.replace a.counts name
    (v +. Option.value (Hashtbl.find_opt a.counts name) ~default:0.)

let get a name = Option.value (Hashtbl.find_opt a.counts name) ~default:0.

let span a i f =
  let t0 = clock_ns () and w0 = Gc.minor_words () in
  let r = f () in
  a.ns.(i) <- a.ns.(i) +. (clock_ns () -. t0);
  a.words.(i) <- a.words.(i) +. (Gc.minor_words () -. w0);
  r

let ( let* ) = Result.bind

(* -- compile path ------------------------------------------------------------ *)

let rec make_commons (Ifl.Tree.Node (t, kids)) =
  List.fold_left
    (fun n k -> n + make_commons k)
    (if t.Ifl.Token.sym = "make_common" then 1 else 0)
    kids

let nodes trees = List.fold_left (fun n t -> n + Ifl.Tree.size t) 0 trees

(* [Codegen.generate] with default options: the driver's self time
   excludes the reductions it calls back into the emitter. *)
let generate a (tables : Cogg.Tables.t) (tokens : Ifl.Token.t list) :
    (string * Bytes.t, string) result =
  let emitter = span a emit (fun () -> Cogg.Emit.create tables) in
  let reduce ~prod ~rhs ~remap =
    let t0 = clock_ns () and w0 = Gc.minor_words () in
    let r = Cogg.Emit.reduce emitter ~prod ~rhs ~remap in
    a.ns.(emit) <- a.ns.(emit) +. (clock_ns () -. t0);
    a.words.(emit) <- a.words.(emit) +. (Gc.minor_words () -. w0);
    r
  in
  let emit_ns = a.ns.(emit) and emit_words = a.words.(emit) in
  let t0 = clock_ns () and w0 = Gc.minor_words () in
  let parsed =
    match Cogg.Driver.parse tables ~reduce tokens with
    | Ok o -> Ok o
    | Error e -> Error (Fmt.str "%a" Cogg.Driver.pp_error e)
    | exception Cogg.Emit.Emit_error m -> Error m
    | exception Cogg.Regalloc.Pressure m -> Error m
  in
  a.ns.(driver) <-
    a.ns.(driver) +. (clock_ns () -. t0) -. (a.ns.(emit) -. emit_ns);
  a.words.(driver) <-
    a.words.(driver) +. (Gc.minor_words () -. w0) -. (a.words.(emit) -. emit_words);
  let* outcome = parsed in
  let* _, resolved = span a loader (fun () -> Cogg.Emit.finish emitter) in
  let text = span a listing (fun () -> Cogg.Emit.listing emitter) in
  let st = Cogg.Emit.stats emitter in
  count a "linearize.tokens" (float_of_int (List.length tokens));
  count a "driver.shifts" (float_of_int outcome.Cogg.Driver.shifts);
  count a "driver.reductions" (float_of_int outcome.Cogg.Driver.reductions);
  count a "regalloc.allocs" (float_of_int st.Cogg.Regalloc.n_allocs);
  count a "regalloc.evictions" (float_of_int st.Cogg.Regalloc.n_evictions);
  count a "regalloc.transfers" (float_of_int st.Cogg.Regalloc.n_transfers);
  count a "loader.sites" (float_of_int resolved.Cogg.Loader_gen.n_sites);
  count a "loader.long_sites" (float_of_int resolved.Cogg.Loader_gen.n_long);
  count a "loader.iterations" (float_of_int resolved.Cogg.Loader_gen.iterations);
  count a "listing.bytes" (float_of_int (String.length text));
  Ok (text, resolved.Cogg.Loader_gen.code)

(* [Pipeline.compile] with default options (CSE on, no checks).  The
   shaped value is built afresh on every call: [Cse_opt.optimize]
   allocates its temporaries in the input's frames. *)
let compile a (tables : Cogg.Tables.t) (source : string) :
    (string * Bytes.t, string) result =
  let* checked = span a front_end (fun () -> Pascal.Sema.front_end source) in
  let* shaped =
    span a shape (fun () ->
        Result.map_error
          (Fmt.str "%a" Shaper.Irgen.pp_error)
          (Shaper.Irgen.shape checked))
  in
  let before = nodes shaped.Shaper.Irgen.trees in
  let shaped = span a cse_opt (fun () -> Shaper.Cse_opt.optimize shaped) in
  let trees = shaped.Shaper.Irgen.trees in
  count a "shape.nodes" (float_of_int before);
  count a "cse_opt.temps"
    (float_of_int (List.fold_left (fun n t -> n + make_commons t) 0 trees));
  count a "cse_opt.nodes_saved" (float_of_int (before - nodes trees));
  let tokens = span a linearize (fun () -> Ifl.Tree.linearize_program trees) in
  generate a tables tokens

(* -- table construction ------------------------------------------------------ *)

let target = Machine.Targets.default

let errors es = Fmt.str "%a" (Fmt.list Cogg.Cogg_build.pp_error) es

(* [Cogg_build.build_string] (no [previous]) or
   [Cogg_build.build_incremental_string ~previous], for the default
   target, SLR(1) lookaheads and no profile, with what it reused: the
   benchmark holds the statistics to the library's, so that the spans
   time the library's reuse policy and not an older copy of it. *)
let build a ?(previous : Cogg.Tables.t option) (text : string) :
    (Cogg.Tables.t * Cogg.Cogg_build.incr_stats, string) result =
  let open Cogg in
  let* spec =
    span a spec_parse (fun () ->
        Result.map_error
          (fun (e : Spec_parse.error) ->
            Fmt.str "spec:%d: %s" e.Spec_parse.line e.Spec_parse.msg)
          (Spec_parse.of_string text))
  in
  let* st =
    span a symtab (fun () ->
        Result.map_error
          (fun (e : Symtab.error) -> Fmt.str "spec:%d: %s" e.Symtab.line e.Symtab.msg)
          (Symtab.of_spec ~target spec))
  in
  let* g =
    span a grammar (fun () ->
        Result.map_error errors (Cogg_build.grammar_of_spec st spec))
  in
  let hashes = span a spec_hash (fun () -> Spec_hash.of_spec st spec) in
  (* what the previous build still covers: with stable symbol ids its
     templates transfer by content hash, and with an unchanged grammar
     shape its automaton, action rows and comb packing too *)
  let previous =
    match previous with
    | Some p
      when p.Tables.hashes.Spec_hash.decls = hashes.Spec_hash.decls
           && p.Tables.grammar.Grammar.names = g.Grammar.names
           && Array.length p.Tables.hashes.Spec_hash.prods = p.Tables.n_user_prods
      ->
        Some p
    | _ -> None
  in
  let productions = Array.of_list spec.Spec_ast.productions in
  let n_user = Array.length productions in
  let compiled = Array.make (Grammar.n_prods g) None in
  let reused = ref 0 in
  let* () =
    span a template (fun () ->
        let sources = Hashtbl.create 64 in
        Option.iter
          (fun (p : Tables.t) ->
            Array.iteri
              (fun j h ->
                if p.Tables.compiled.(j) <> None then begin
                  let q =
                    match Hashtbl.find_opt sources h with
                    | Some q -> q
                    | None ->
                        let q = Queue.create () in
                        Hashtbl.add sources h q;
                        q
                  in
                  Queue.add j q
                end)
              p.Tables.hashes.Spec_hash.prods)
          previous;
        let errs = ref [] in
        Array.iteri
          (fun i p ->
            match
              ( previous,
                Hashtbl.find_opt sources hashes.Spec_hash.prods.(i) )
            with
            | Some prev, Some q when not (Queue.is_empty q) ->
                let c = Option.get prev.Tables.compiled.(Queue.pop q) in
                incr reused;
                compiled.(i) <- Some { c with Template.c_prod = i }
            | _ -> (
                match Template.compile ~target ~grammar:g ~symtab:st ~prod_id:i p with
                | Ok c -> compiled.(i) <- Some c
                | Error e -> errs := Fmt.str "%a" Template.pp_error e :: !errs))
          productions;
        if !errs = [] then Ok () else Error (String.concat "; " (List.rev !errs)))
  in
  let splice =
    match previous with
    | Some p -> p.Tables.hashes.Spec_hash.shape = hashes.Spec_hash.shape
    | None -> false
  in
  let parse, compressed =
    match previous with
    | Some p when splice ->
        let pa = p.Tables.parse in
        ( {
            Parse_table.grammar = g;
            automaton =
              {
                Lr0.grammar = g;
                states = pa.Parse_table.automaton.Lr0.states;
                start = pa.Parse_table.automaton.Lr0.start;
              };
            mode = Lookahead.Slr;
            actions = pa.Parse_table.actions;
            conflicts = pa.Parse_table.conflicts;
          },
          p.Tables.compressed )
    | _ ->
        let automaton = span a lr0 (fun () -> Lr0.build g) in
        count a "lr0.states" (float_of_int (Lr0.n_states automaton));
        let parse =
          span a parse_table (fun () ->
              Parse_table.build ~mode:Lookahead.Slr automaton)
        in
        let c =
          span a compress (fun () ->
              Compress.compress ~method_:Compress.Defaults_and_comb parse)
        in
        count a "compress.bytes" (float_of_int c.Compress.size_bytes);
        (parse, c)
  in
  let n = Grammar.n_syms g in
  let class_of = Array.make n None and kind_of = Array.make n None in
  List.iter
    (fun (name, cls) ->
      Option.iter (fun s -> class_of.(s) <- Some cls) (Grammar.sym g name))
    st.Symtab.nonterminals;
  List.iter
    (fun (name, k) ->
      Option.iter (fun s -> kind_of.(s) <- Some k) (Grammar.sym g name))
    st.Symtab.terminals;
  count a "builds" 1.;
  count a "template.compiled" (float_of_int (n_user - !reused));
  count a "template.reused" (float_of_int !reused);
  count a "template.productions" (float_of_int n_user);
  if splice then count a "cogg_build.spliced" 1.;
  let tables =
    {
      Tables.target;
      grammar = g;
      symtab = st;
      parse;
      compressed;
      hybrid = None;
      compiled;
      n_user_prods = n_user;
      class_of;
      kind_of;
      hashes;
      profile_digest = None;
    }
  in
  Ok
    ( tables,
      {
        Cogg_build.spliced_tables = splice;
        templates_reused = !reused;
        templates_recompiled = n_user - !reused;
      } )

(* -- the per-layer result ----------------------------------------------------- *)

type service = {
  hit_ms_p50 : float;
  miss_ms_p50 : float;
  inline_hit_ratio : float;
  verified_hits : float;
  overloaded : float;
  cache_hit_ratio : float;
  evictions : float;
}

let no_service =
  {
    hit_ms_p50 = 0.;
    miss_ms_p50 = 0.;
    inline_hit_ratio = 0.;
    verified_hits = 0.;
    overloaded = 0.;
    cache_hit_ratio = 0.;
    evictions = 0.;
  }

let ratio a b = if b = 0. then 0. else a /. b

(* Every per-layer metric, in a fixed order, for any workload: a layer
   the workload does not run in this process reads 0.  [ops] is the
   number of traced operations (passes, rebuilds), [traced_ns] their
   total wall time; self times and counts are means per operation, and
   a share is the layer's part of the traced wall time, with the rest
   reported as [other].  [builds] holds the table-construction spans
   and counts when they come from separate builds (the set-up builds of
   the compile workloads), reported per build. *)
let metrics ~(ops : int) ~(traced_ns : float) ~(overhead_ms : float)
    ~(compile : acc) ~(builds : acc) ~(service : service) : Util.metric list =
  let m = Util.metric ~samples:ops in
  let b = Util.metric ~samples:(int_of_float (get builds "builds")) in
  let per_op x = ratio x (float_of_int ops) in
  let per_build x = ratio x (get builds "builds") in
  let layer_ms i = per_op compile.ns.(i) /. 1e6 in
  let accounted = Array.fold_left ( +. ) 0. compile.ns in
  let compile_rows =
    List.concat_map
      (fun name ->
        let i = id name in
        [
          m (name ^ ".self_ms") "ms" (layer_ms i);
          m (name ^ ".share") "ratio" (ratio compile.ns.(i) traced_ns);
          m (name ^ ".alloc_kwords") "kwords" (per_op compile.words.(i) /. 1e3);
        ])
      (Array.to_list compile_layers)
  in
  let c name = m name "count" (per_op (get compile name)) in
  let table_ms name = b (name ^ ".self_ms") "ms" (per_build builds.ns.(id name) /. 1e6) in
  compile_rows
  @ [
      m "other.self_ms" "ms" (per_op (traced_ns -. accounted) /. 1e6);
      m "other.share" "ratio" (ratio (traced_ns -. accounted) traced_ns);
      m "trace.overhead_ms" "ms" overhead_ms;
      c "shape.nodes";
      c "cse_opt.temps";
      c "cse_opt.nodes_saved";
      c "linearize.tokens";
      c "driver.shifts";
      c "driver.reductions";
      m "driver.ns_per_token" "ns"
        (ratio compile.ns.(driver) (get compile "linearize.tokens"));
      c "regalloc.allocs";
      c "regalloc.evictions";
      c "regalloc.transfers";
      c "loader.sites";
      c "loader.long_sites";
      c "loader.iterations";
      m "listing.bytes" "bytes" (per_op (get compile "listing.bytes"));
      table_ms "spec_parse";
      table_ms "symtab";
      table_ms "grammar";
      table_ms "lr0";
      b "lr0.states" "count" (per_build (get builds "lr0.states"));
      table_ms "parse_table";
      table_ms "template";
      b "template.compiled" "count" (per_build (get builds "template.compiled"));
      table_ms "compress";
      b "compress.bytes" "bytes" (per_build (get builds "compress.bytes"));
      table_ms "spec_hash";
      b "cogg_build.splice_ratio" "ratio" (per_build (get builds "cogg_build.spliced"));
      b "template.reuse_ratio" "ratio"
        (ratio (get builds "template.reused") (get builds "template.productions"));
      m "serve.hit_ms.p50" "ms" service.hit_ms_p50;
      m "serve.miss_ms.p50" "ms" service.miss_ms_p50;
      m "server.inline_hit_ratio" "ratio" service.inline_hit_ratio;
      m "server.verified_hits" "count" service.verified_hits;
      m "server.overloaded" "count" service.overloaded;
      m "result_cache.hit_ratio" "ratio" service.cache_hit_ratio;
      m "result_cache.evictions" "count" service.evictions;
    ]
