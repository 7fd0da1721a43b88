(* The repository benchmark.  See README.md for the workloads, the
   metrics and how to run it.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe selftest
     bench.exe daemon --socket PATH --cache-dir DIR --jobs N   (internal)

   Every run first checks the outputs it will time (the correctness
   gate), then measures for S seconds.  With --trace 0 it reports the
   end-to-end metrics, with --trace 1 the per-layer ones; the last line
   of stdout is the JSON result. *)

let expected_fingerprint = "d522ac078361a58b19cef0d83e2260c8"

(* cold table constructions per run, for the set-up time's median *)
let setup_builds = 9

(* daemon start-ups per serve-mix run *)
let setup_daemons = 9

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* -- bookkeeping ------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable first : string option }

let tally = { attempted = 0; failed = 0; first = None }

let record ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.first = None then tally.first <- Some (what ())
  end

let nproc = Domain.recommended_domain_count ()

(* -- shared pieces ------------------------------------------------------------ *)

let build_tables text =
  match Cogg.Cogg_build.build_string text with
  | Ok t -> t
  | Error es -> Util.fail "spec build failed: %s" (Layers.errors es)

(* Set-up time: wall seconds of each start-up, and the same in
   reference-host seconds. *)
type setup = { wall : float array; ref_ : float array }

(* [setup_builds] cold constructions of the spec; returns the last
   bundle. *)
let cold_setup text : Cogg.Tables.t * setup =
  let wall = Array.make setup_builds 0. and ref_ = Array.make setup_builds 0. in
  let sp = Util.speed () in
  let last = ref None in
  for i = 0 to setup_builds - 1 do
    let t, dt, factor = Util.time sp (fun () -> build_tables text) in
    last := Some t;
    wall.(i) <- dt;
    ref_.(i) <- dt *. factor
  done;
  (Option.get !last, { wall; ref_ })

(* The traced twin of [cold_setup]: the same constructions, layer by
   layer, each required to serialize exactly like [Cogg_build.build]
   and to reuse nothing. *)
let traced_builds text (reference : Cogg.Tables.t) : Layers.acc =
  let a = Layers.acc () in
  let want = Cogg.Tables_io.write reference in
  for _ = 1 to setup_builds do
    match Layers.build a text with
    | Ok (t, st) ->
        record
          (Cogg.Tables_io.write t = want
          && (not st.Cogg.Cogg_build.spliced_tables)
          && st.Cogg.Cogg_build.templates_reused = 0)
          (fun () -> "traced cold build differs from Cogg_build.build")
    | Error m -> record false (fun () -> "traced cold build failed: " ^ m)
  done;
  a

(* The standing 32-job batch fingerprint. *)
let fingerprint_gate tables =
  let corpus = Array.of_list Pipeline.Programs.all in
  let jobs =
    Array.init 32 (fun i ->
        let name, source = corpus.(i mod Array.length corpus) in
        { Pipeline.Batch.name; source })
  in
  let fp = Pipeline.Batch.fingerprint (Pipeline.Batch.compile_all tables jobs) in
  record (fp = expected_fingerprint) (fun () ->
      Printf.sprintf "batch fingerprint %s, expected %s" fp expected_fingerprint)

type output = string * Bytes.t  (* listing, object bytes *)

let output_of_gen (g : Cogg.Codegen.result_t) : output =
  (g.Cogg.Codegen.listing, g.Cogg.Codegen.resolved.Cogg.Loader_gen.code)

let same_output ((l1, c1) : output) ((l2, c2) : output) =
  String.equal l1 l2 && Bytes.equal c1 c2

(* -- the measuring loop -------------------------------------------------------- *)

type measured = {
  wall_ms : float array;  (** wall ms per operation *)
  ref_ms : float array;  (** the same in reference-host ms *)
  wall_s : float;  (** wall seconds the operations took *)
  ref_s : float;  (** the same in reference-host seconds *)
  words : float;  (** words allocated inside the operations *)
  peak_mb : float;  (** the major heap's peak, see [timed_loop] *)
}

(* Run operation [i = 0, 1, ...] for [seconds] of wall time; [check]
   sees each result after its timer has stopped.  An operation is timed
   in the steps it passes to [step], each followed by a kernel run that
   is not timed: one step, or for a long operation a few, so that the
   host speed is measured every 10-20 ms.

   The heap is compacted first, so that the set-up and the checks
   before the loop leave none of their peak to the heap sizes sampled
   after each step.  The peak reported is the median, over nine
   stretches of the run, of the largest sample in each: the largest
   sample of the whole run depends on where the collector's cycles
   happen to fall, and spread by 9% of its median over ten spec-edit
   runs. *)
let timed_loop ~seconds ~(run : step:((unit -> unit) -> unit) -> int -> 'a)
    ~(check : int -> 'a -> unit) : measured =
  let wall = Util.sample () and ref_ = Util.sample () in
  let words = ref 0. and wall_s = ref 0. and ref_s = ref 0. in
  Gc.compact ();
  let heap = Util.sample () in
  let stop = Util.now () +. seconds in
  let sp = Util.speed () in
  let i = ref 0 in
  while Util.now () < stop do
    let op_wall = ref 0. and op_ref = ref 0. in
    let step f =
      let w, dt, factor =
        Util.time sp (fun () ->
            let w0 = Util.alloc_words () in
            f ();
            Util.alloc_words () -. w0)
      in
      words := !words +. w;
      Util.push heap (Util.heap_mb ());
      op_wall := !op_wall +. dt;
      op_ref := !op_ref +. (dt *. factor)
    in
    let r = run ~step !i in
    wall_s := !wall_s +. !op_wall;
    ref_s := !ref_s +. !op_ref;
    Util.push wall (!op_wall *. 1e3);
    Util.push ref_ (!op_ref *. 1e3);
    check !i r;
    incr i
  done;
  {
    wall_ms = Util.values wall;
    ref_ms = Util.values ref_;
    wall_s = !wall_s;
    ref_s = !ref_s;
    words = !words;
    peak_mb = Util.median_of_maxima ~stretches:9 (Util.values heap);
  }

(* The traced run's loop: operation [i] runs untraced, then traced;
   the difference of the two sums is the tracing overhead.  Each
   returns the check of its result, run after the timer stops. *)
type traced = { ops : int; traced_ns : float; overhead_ms : float }

let traced_loop ~seconds ~(plain : int -> unit -> unit)
    ~(traced : int -> unit -> unit) : traced =
  let stop = Util.now () +. seconds in
  let i = ref 0 and plain_ns = ref 0. and traced_ns = ref 0. in
  while Util.now () < stop do
    let t0 = Util.clock_ns () in
    let check_plain = plain !i in
    let t1 = Util.clock_ns () in
    let check_traced = traced !i in
    let t2 = Util.clock_ns () in
    check_plain ();
    check_traced ();
    plain_ns := !plain_ns +. (t1 -. t0);
    traced_ns := !traced_ns +. (t2 -. t1);
    incr i
  done;
  {
    ops = !i;
    traced_ns = !traced_ns;
    overhead_ms = (!traced_ns -. !plain_ns) /. float_of_int (max 1 !i) /. 1e6;
  }

type run_result = {
  metrics : Util.metric list;  (** the contract's metrics for this mode *)
  extra : Util.metric list;  (** the workload's own names, for the report *)
}

(* The end-to-end metrics, in BENCHMARK.json order (times in
   reference-host units), and the report's wall-clock twins under the
   workload's own name for an operation ([batch], [rebuild],
   [request]). *)
let end_to_end ~op ~(setup : setup) ~(m : measured) ~ops
    ?(percentiles = [ 50.; 90. ]) () : run_result =
  let n = Array.length m.ref_ms in
  let sn = Array.length setup.ref_ in
  let pct name unit_ a p =
    Util.metric ~samples:n (Printf.sprintf "%s.p%g" name p) unit_ (Util.percentile a p)
  in
  {
    metrics =
      [
        Util.metric ~samples:sn "setup_s" "s" (Util.median setup.ref_);
        pct "op_ms" "ms" m.ref_ms 50.;
        pct "op_ms" "ms" m.ref_ms 90.;
        Util.metric ~samples:n "ops_per_s" "1/s" (float_of_int ops /. m.ref_s);
        Util.metric ~samples:n "alloc_mwords_per_op" "Mwords"
          (m.words /. float_of_int ops /. 1e6);
        Util.metric "peak_heap_mb" "MB" m.peak_mb;
      ];
    extra =
      List.map (pct (op ^ "_ms") "ms" m.ref_ms) percentiles
      @ List.map (pct ("wall_" ^ op ^ "_ms") "ms" m.wall_ms) percentiles
      @ [
          Util.metric ~samples:sn "wall_setup_s" "s" (Util.median setup.wall);
          Util.metric ~samples:n "wall_ops_per_s" "1/s" (float_of_int ops /. m.wall_s);
          Util.metric "host_speed" "ratio" (m.ref_s /. m.wall_s);
        ];
  }

let sequential_e2e ~op ~setup (m : measured) =
  end_to_end ~op ~setup ~m ~ops:(Array.length m.ref_ms) ()

(* -- pascal-real and if-direct --------------------------------------------------- *)

(* A compile workload: [n] inputs, each compiled by [compile] (the
   library entry point) or by [traced] (the layer decomposition); each
   output must equal the reference computed before timing.  A timed
   pass is measured in steps of [chunk] inputs.  The report adds the
   object bytes of a pass to [extra]. *)
let compile_workload args ~tables ~setup ~text ~n ~chunk
    ~(compile : int -> (output, string) result)
    ~(traced : Layers.acc -> int -> (output, string) result) ~extra =
  let reference =
    Array.init n (fun i ->
        match compile i with
        | Ok o -> Some o
        | Error m ->
            record false (fun () -> Printf.sprintf "input %d: %s" i m);
            None)
  in
  let check_one what i r =
    record
      (match (r, reference.(i)) with
      | Ok o, Some want -> same_output o want
      | _ -> false)
      (fun () -> Printf.sprintf "%s: input %d differs from the reference" what i)
  in
  (* outputs agree across two passes *)
  Array.iteri (fun i _ -> check_one "second pass" i (compile i)) reference;
  (* pass [k] starts at input [k mod n] and wraps around: the
     collector's cycle, which repeats with every pass, meets each input
     in turn rather than always the same one *)
  let at k j = (j + k) mod n in
  let pass ~step k =
    let outs = Array.make n (Error "") in
    for c = 0 to (n - 1) / chunk do
      step (fun () ->
          for j = c * chunk to min n ((c + 1) * chunk) - 1 do
            outs.(j) <- compile (at k j)
          done)
    done;
    outs
  in
  let check what k outs = Array.iteri (fun j o -> check_one what (at k j) o) outs in
  if not args.trace then begin
    let m =
      timed_loop ~seconds:args.seconds ~run:pass ~check:(check "timed pass")
    in
    let code =
      Array.fold_left
        (fun n o -> n + Option.fold ~none:0 ~some:(fun (_, c) -> Bytes.length c) o)
        0 reference
    in
    let r = sequential_e2e ~op:"batch" ~setup m in
    {
      r with
      extra = r.extra @ extra @ [ Util.metric "code_bytes" "bytes" (float_of_int code) ];
    }
  end
  else begin
    let builds = traced_builds text tables in
    let a = Layers.acc () in
    let t =
      traced_loop ~seconds:args.seconds
        ~plain:(fun k ->
          let outs = pass ~step:(fun f -> f ()) k in
          fun () -> check "untraced pass" k outs)
        ~traced:(fun k ->
          let outs = Array.init n (fun j -> traced a (at k j)) in
          fun () -> check "traced pass" k outs)
    in
    {
      metrics =
        Layers.metrics ~ops:t.ops ~traced_ns:t.traced_ns ~overhead_ms:t.overhead_ms
          ~compile:a ~builds ~service:Layers.no_service;
      extra = [];
    }
  end

let pascal_real args =
  let text = Util.spec_text () in
  let tables, setup = cold_setup text in
  fingerprint_gate tables;
  let programs = Inputs.pascal_real ~seed:args.seed in
  (* every program agrees with the reference interpreter *)
  let steps = ref 0 in
  Array.iter
    (fun (name, src) ->
      match Pipeline.verify tables src with
      | Ok v ->
          let x = v.Pipeline.executed in
          steps := !steps + x.Pipeline.outcome.Machine.Runtime.steps;
          record v.Pipeline.agreed (fun () ->
              Printf.sprintf "%s disagrees with the interpreter: %s" name
                (String.concat "; " v.Pipeline.mismatches))
      | Error m -> record false (fun () -> name ^ ": " ^ m))
    programs;
  let compile i =
    Result.map
      (fun c -> output_of_gen c.Pipeline.gen)
      (Pipeline.compile tables (snd programs.(i)))
  in
  compile_workload args ~tables ~setup ~text
    ~n:(Array.length programs) ~chunk:4 ~compile
    ~traced:(fun a i -> Layers.compile a tables (snd programs.(i)))
    ~extra:[ Util.metric "sim_steps" "count" (float_of_int !steps) ]

let if_direct args =
  let text = Util.spec_text () in
  let tables, setup = cold_setup text in
  fingerprint_gate tables;
  let streams = Inputs.if_direct ~seed:args.seed in
  let compile i =
    match Cogg.Codegen.generate tables streams.(i) with
    | Ok g -> Ok (output_of_gen g)
    | Error e -> Error (Fmt.str "%a" Cogg.Codegen.pp_error e)
  in
  let tokens = Array.fold_left (fun n s -> n + List.length s) 0 streams in
  compile_workload args ~tables ~setup ~text ~n:(Array.length streams)
    ~chunk:16 ~compile
    ~traced:(fun a i -> Layers.generate a tables streams.(i))
    ~extra:
      [
        Util.metric "streams" "count" (float_of_int (Array.length streams));
        Util.metric "tokens" "count" (float_of_int tokens);
      ]

(* -- spec-edit ------------------------------------------------------------------ *)

let spec_edit args =
  let text = Util.spec_text () in
  let previous, setup = cold_setup text in
  fingerprint_gate previous;
  let edits = Inputs.spec_edit ~seed:args.seed ~base:text in
  let rebuild (e : Inputs.edit) =
    Cogg.Cogg_build.build_incremental_string ~previous e.Inputs.text
  in
  (* the incremental-construction oracle on every edit: the spliced
     rebuild serializes exactly like a from-scratch build, and only
     template tweaks splice; later rebuilds are held to the digest of
     those bytes and to the reuse statistics *)
  let digest t = Digest.string (Cogg.Tables_io.write t) in
  let expected =
    Array.map
      (fun (e : Inputs.edit) ->
        let what () =
          Printf.sprintf "%s at line %d" (Inputs.kind_name e.Inputs.kind) e.Inputs.at
        in
        match (rebuild e, Cogg.Cogg_build.build_string e.Inputs.text) with
        | Ok (t, st), Ok scratch ->
            let bytes = Cogg.Tables_io.write t in
            record
              (bytes = Cogg.Tables_io.write scratch
              && st.Cogg.Cogg_build.spliced_tables = (e.Inputs.kind = Inputs.Tweak))
              (fun () -> what () ^ ": incremental rebuild differs from scratch");
            (Digest.string bytes, Some st)
        | Error es, _ | _, Error es ->
            record false (fun () -> what () ^ ": " ^ Layers.errors es);
            ("", None))
      edits
  in
  let n = Array.length edits in
  let check_bytes what i (t, st) =
    let want, want_st = expected.(i mod n) in
    record
      (digest t = want && Some st = want_st)
      (fun () -> Printf.sprintf "%s of edit %d differs" what (i mod n))
  in
  if not args.trace then begin
    let m =
      timed_loop ~seconds:args.seconds
        ~run:(fun ~step i ->
          let r = ref None in
          step (fun () -> r := Some (rebuild edits.(i mod n)));
          Option.get !r)
        ~check:(fun i r ->
          match r with
          | Ok r -> check_bytes "rebuild" i r
          | Error es -> record false (fun () -> Layers.errors es))
    in
    let by_kind shape =
      Array.of_list
        (List.filteri
           (fun i _ -> (edits.(i mod n).Inputs.kind <> Inputs.Tweak) = shape)
           (Array.to_list m.ref_ms))
    in
    let r = sequential_e2e ~op:"rebuild" ~setup m in
    {
      r with
      extra =
        r.extra
        @ [
            Util.metric "splice_rebuild_ms.p50" "ms" (Util.median (by_kind false));
            Util.metric "shape_rebuild_ms.p50" "ms" (Util.median (by_kind true));
          ];
    }
  end
  else begin
    let a = Layers.acc () in
    let t =
      traced_loop ~seconds:args.seconds
        ~plain:(fun i ->
          let r = rebuild edits.(i mod n) in
          fun () ->
            match r with
            | Ok r -> check_bytes "rebuild" i r
            | Error es -> record false (fun () -> Layers.errors es))
        ~traced:(fun i ->
          let r = Layers.build a ~previous edits.(i mod n).Inputs.text in
          fun () ->
            match r with
            | Ok r -> check_bytes "traced rebuild" i r
            | Error m -> record false (fun () -> m))
    in
    {
      metrics =
        Layers.metrics ~ops:t.ops ~traced_ns:t.traced_ns ~overhead_ms:t.overhead_ms
          ~compile:a ~builds:a ~service:Layers.no_service;
      extra = [];
    }
  end

(* -- serve-mix ------------------------------------------------------------------ *)

let private_dir = ref None

let serve_mix args =
  let dir = Option.get !private_dir in
  let jobs = max 1 (min 2 nproc) and conns = max 1 (min 2 nproc) in
  (* start-ups: each daemon builds its tables into an empty cache *)
  let wall = Array.make setup_daemons 0. and ref_ = Array.make setup_daemons 0. in
  let daemon = ref None in
  for i = 0 to setup_daemons - 1 do
    Option.iter (fun d -> ignore (Serve_load.shutdown d)) !daemon;
    let d, w, r = Serve_load.spawn ~dir ~index:i ~jobs in
    wall.(i) <- w;
    ref_.(i) <- r;
    daemon := Some d
  done;
  let d = Option.get !daemon and setup = { wall; ref_ } in
  (* the direct compiles replies are checked against *)
  let tables = build_tables (Util.spec_text ()) in
  fingerprint_gate tables;
  let bank = Array.of_list (List.map snd (Util.bank ())) in
  let hot = Inputs.hot_set ~seed:args.seed bank in
  let direct src =
    match Pipeline.compile tables src with
    | Ok c ->
        let l, b = output_of_gen c.Pipeline.gen in
        Ok (l, Bytes.to_string b)
    | Error m -> Error m
  in
  let expected = Array.map direct bank in
  let req k = Inputs.serve_request ~seed:args.seed ~bank ~hot k in
  let sampled = ref [] in
  let lat_wall = Util.sample () and lat_ref = Util.sample () in
  let hits = Util.sample () and misses = Util.sample () in
  let on_reply ~measure (c : Serve_load.completed) =
    let k = c.Serve_load.k in
    let r = req k in
    match c.Serve_load.reply with
    | Serve.Wire.Compiled { outcome; cached; _ } ->
        record (outcome = expected.(r.Inputs.base)) (fun () ->
            Printf.sprintf "request %d: reply differs from a direct compile" k);
        if measure then begin
          Util.push lat_wall c.Serve_load.ms;
          Util.push lat_ref (c.Serve_load.ms *. c.Serve_load.factor);
          Util.push (if cached then hits else misses) c.Serve_load.ms
        end;
        (* 17 is prime to the write period, so writes are sampled too *)
        if k mod 17 = 0 then sampled := (r.Inputs.source, outcome) :: !sampled
    | _ -> record false (fun () -> Printf.sprintf "request %d was not compiled" k)
  in
  let loop ~first ~seconds ~measure =
    Serve_load.closed_loop ~socket:d.Serve_load.socket ~conns ~seconds ~first
      ~source:(fun k -> (req k).Inputs.source) ~on_reply:(on_reply ~measure)
  in
  let warm = loop ~first:0 ~seconds:1.0 ~measure:false in
  let l = loop ~first:warm.Serve_load.completed ~seconds:args.seconds ~measure:true in
  (* sampled replies, byte for byte against a direct compile of the
     very source that was sent *)
  List.iter
    (fun (src, outcome) ->
      record (direct src = outcome) (fun () ->
          "a sampled reply differs from Pipeline.compile of its source"))
    !sampled;
  let stats = Serve_load.stats d in
  let stat k = float_of_int (Option.value (List.assoc_opt k stats) ~default:0) in
  let report = Serve_load.shutdown d in
  record (stat "overloaded" = 0.) (fun () -> "the daemon refused requests");
  let requests = warm.Serve_load.completed + l.Serve_load.completed in
  let m =
    {
      wall_ms = Util.values lat_wall;
      ref_ms = Util.values lat_ref;
      wall_s = l.Serve_load.wall_s;
      ref_s = l.Serve_load.ref_s;
      (* the daemon's allocation, spread over every request it served *)
      words =
        report.Serve_load.alloc_words *. float_of_int l.Serve_load.completed
        /. float_of_int requests;
      peak_mb = report.Serve_load.peak_mb;
    }
  in
  if not args.trace then
    let r =
      end_to_end ~op:"request" ~setup ~m ~ops:l.Serve_load.completed
        ~percentiles:[ 50.; 90.; 99. ] ()
    in
    {
      r with
      extra =
        r.extra
        @ [
            Util.metric ~samples:l.Serve_load.completed "requests_per_s" "1/s"
              (float_of_int l.Serve_load.completed /. l.Serve_load.ref_s);
            Util.metric "daemon_compiles" "count" (float_of_int report.Serve_load.compiles);
            Util.metric "requests" "count" (float_of_int requests);
          ];
    }
  else
    {
      metrics =
        Layers.metrics ~ops:l.Serve_load.completed ~traced_ns:0. ~overhead_ms:0.
          ~compile:(Layers.acc ()) ~builds:(Layers.acc ())
          ~service:
            {
              Layers.hit_ms_p50 = Util.median (Util.values hits);
              miss_ms_p50 = Util.median (Util.values misses);
              inline_hit_ratio = Layers.ratio (stat "inline_hits") (float_of_int requests);
              verified_hits = stat "verified_hits";
              overloaded = stat "overloaded";
              cache_hit_ratio =
                Layers.ratio (stat "cache_hits") (stat "cache_hits" +. stat "cache_misses");
              evictions = stat "cache_evictions";
            };
      extra = [];
    }

(* -- provenance ------------------------------------------------------------------- *)

(* A digest of the sources the benchmark measures, standing in for the
   commit when the checkout is not a git repository. *)
let source_digest () =
  let rec files rel =
    let path = Util.in_root rel in
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat rel f))
    else [ rel ]
  in
  [ "lib"; "specs"; "examples/programs"; "perfbench" ]
  |> List.concat_map files
  |> List.map (fun f -> f ^ "\000" ^ Util.read_file (Util.in_root f))
  |> Inputs.digest_strings

let provenance args =
  Printf.printf
    "provenance: {\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"nproc\": %d, \"ocaml\": %s, \"commit\": %s, \"source_digest\": %s, \
     \"input_digest\": %s}\n"
    (Util.json_string args.workload) args.seed args.seconds args.trace nproc
    (Util.json_string Sys.ocaml_version)
    (Util.json_string (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"))
    (Util.json_string (source_digest ()))
    (Util.json_string (Inputs.digest ~seed:args.seed args.workload))

(* -- the private directory ---------------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Under .perfbench-tmp/ in the checkout; relative, so socket paths
   stay short wherever the checkout lives. *)
let make_private_dir () =
  let base = ".perfbench-tmp" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  private_dir := Some dir;
  Unix.putenv "COGG_CACHE_DIR" (Filename.concat dir "cache");
  dir

let cleanup () =
  Serve_load.kill_all ();
  Option.iter
    (fun dir ->
      private_dir := None;
      (try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ());
      try Unix.rmdir ".perfbench-tmp" with Unix.Unix_error _ -> ())
    !private_dir

(* -- self-test ------------------------------------------------------------------------ *)

let selftest () =
  let workloads = [ "pascal-real"; "if-direct"; "spec-edit"; "serve-mix" ] in
  let fails = ref 0 in
  let expect ok fmt =
    Printf.ksprintf
      (fun m ->
        if not ok then begin
          incr fails;
          prerr_endline ("perfbench selftest: " ^ m)
        end)
      fmt
  in
  List.iter
    (fun w ->
      let a = Inputs.digest ~seed:1 w and b = Inputs.digest ~seed:1 w in
      expect (a = b) "%s: seed 1 gave two different inputs" w;
      if w <> "pascal-real" then
        expect (a <> Inputs.digest ~seed:2 w) "%s: seeds 1 and 2 gave the same inputs" w)
    workloads;
  let sorted a = List.sort compare (Array.to_list a) in
  expect
    (sorted (Inputs.pascal_real ~seed:1) = sorted (Inputs.pascal_real ~seed:2))
    "pascal-real: the seed changed the program set, not just its order";
  let edits = Inputs.spec_edit ~seed:1 ~base:(Util.spec_text ()) in
  let shape = Array.fold_left (fun n e -> if e.Inputs.kind = Inputs.Tweak then n else n + 1) 0 edits in
  expect (4 * shape = Array.length edits) "spec-edit: %d of %d edits change the shape" shape
    (Array.length edits);
  let bank = Array.of_list (List.map snd (Util.bank ())) in
  let hot = Inputs.hot_set ~seed:1 bank in
  let reqs = List.init 400 (Inputs.serve_request ~seed:1 ~bank ~hot) in
  let writes = List.filter (fun r -> r.Inputs.write) reqs in
  expect (List.length writes = 100) "serve-mix: %d writes in 400 requests" (List.length writes);
  let srcs = List.map (fun r -> r.Inputs.source) writes in
  expect
    (List.length (List.sort_uniq compare srcs) = List.length srcs
    && List.for_all (fun s -> not (Array.exists (fun (h, _) -> h = s) hot)) srcs)
    "serve-mix: a write repeats an earlier source";
  (* the metrics a run prints are the ones BENCHMARK.json declares, in
     its order and with its units *)
  let declared = Util.read_file (Util.in_root "BENCHMARK.json") in
  let rec index sub i =
    if i + String.length sub > String.length declared then String.length declared
    else if String.sub declared i (String.length sub) = sub then i
    else index sub (i + 1)
  in
  (* the (name, unit) pairs from the key [first] to the key [stop], or
     to the end *)
  let section first stop =
    let a = index (Printf.sprintf "\"%s\"" first) 0 in
    let b =
      match stop with
      | Some k -> index (Printf.sprintf "\"%s\"" k) a
      | None -> String.length declared
    in
    let rec values field i acc =
      let tag = Printf.sprintf "\"%s\": \"" field in
      let j = index tag i + String.length tag in
      if j >= b then List.rev acc
      else
        let k = String.index_from declared j '"' in
        values field k (String.sub declared j (k - j) :: acc)
    in
    List.combine (values "name" a []) (values "unit" a [])
  in
  let printed (ms : Util.metric list) = List.map (fun m -> (m.Util.name, m.Util.unit_)) ms in
  let one = [| 1. |] in
  let e2e =
    (end_to_end ~op:"op" ~setup:{ wall = one; ref_ = one }
       ~m:{ wall_ms = one; ref_ms = one; wall_s = 1.; ref_s = 1.; words = 1.; peak_mb = 1. }
       ~ops:1 ())
      .metrics
  in
  expect
    (section "end_to_end" (Some "per_layer") = printed e2e)
    "the end-to-end metrics differ from BENCHMARK.json";
  expect
    (section "per_layer" None
    = printed
        (Layers.metrics ~ops:1 ~traced_ns:1. ~overhead_ms:0. ~compile:(Layers.acc ())
           ~builds:(Layers.acc ()) ~service:Layers.no_service))
    "the per-layer metrics differ from BENCHMARK.json";
  if !fails > 0 then exit 1;
  print_endline "perfbench selftest: ok"

(* -- command line ---------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe selftest";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] argv

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest ()
  | "daemon" :: rest ->
      let opts = parse rest in
      let get k = try List.assoc k opts with Not_found -> usage () in
      Serve_load.daemon_main ~socket:(get "socket") ~cache_dir:(get "cache-dir")
        ~jobs:(int_of_string (get "jobs"))
  | rest ->
      let opts = parse rest in
      let get k = try List.assoc k opts with Not_found -> usage () in
      let args =
        try
          {
            workload = get "workload";
            seed = int_of_string (get "seed");
            seconds = float_of_string (get "seconds");
            trace =
              (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
          }
        with Failure _ -> usage ()
      in
      let run =
        match args.workload with
        | "pascal-real" -> pascal_real
        | "if-direct" -> if_direct
        | "spec-edit" -> spec_edit
        | "serve-mix" -> serve_mix
        | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2
      in
      ignore (Lazy.force Util.root);
      at_exit cleanup;
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm; Sys.sighup ];
      Sys.chdir (Lazy.force Util.root);
      ignore (make_private_dir ());
      provenance args;
      let r =
        try run args
        with e ->
          record false (fun () -> "run aborted: " ^ Printexc.to_string e);
          { metrics = []; extra = [] }
      in
      let correct = tally.failed = 0 in
      Option.iter (fun m -> prerr_endline ("perfbench: FAILED: " ^ m)) tally.first;
      if correct then
        Util.print_report
          ~title:
            (Printf.sprintf "%s (seed %d, %s, fail_ratio %d/%d)" args.workload
               args.seed
               (if args.trace then "traced" else "untraced")
               tally.failed tally.attempted)
          (r.metrics @ r.extra
          @ [ Util.metric ~samples:tally.attempted "fail_ratio" "ratio" 0. ]);
      Util.print_result ~correct ~attempted:tally.attempted ~failed:tally.failed
        (if correct then r.metrics else []);
      exit (if correct then 0 else 1)
