(* Shared plumbing of the benchmark: locating the checkout, reading
   files, clocks, allocation counters, order statistics and the result
   line. *)

let fail fmt = Printf.ksprintf failwith fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The checkout root: the nearest directory at or above the working
   directory holding [specs/amdahl470.cgg].  The benchmark is run from
   the root; its self-test runs from inside dune's build tree. *)
let root =
  lazy
    (let rec up depth dir =
       if Sys.file_exists (Filename.concat dir "specs/amdahl470.cgg") then dir
       else if depth = 0 || Filename.dirname dir = dir then
         fail "no specs/amdahl470.cgg at or above %s" (Sys.getcwd ())
       else up (depth - 1) (Filename.dirname dir)
     in
     up 6 (Sys.getcwd ()))

let in_root rel = Filename.concat (Lazy.force root) rel
let spec_text () = read_file (in_root "specs/amdahl470.cgg")

(* examples/programs/*.pas, sorted by file name *)
let bank () : (string * string) list =
  let dir = in_root "examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pas")
  |> List.sort compare
  |> List.map (fun f ->
         (Filename.remove_extension f, read_file (Filename.concat dir f)))

let now = Unix.gettimeofday

(* Words allocated by this domain and every domain that has already
   terminated: minor allocations plus direct major allocations. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The major heap's current size.  Sampled between timed steps after a
   compaction, it shows the heap of the timed operations alone, not of
   the set-up and the checks before them. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6

(* -- order statistics ---------------------------------------------------- *)

(* Nearest-rank percentile of an unsorted sample (0 < p <= 100). *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.

(* The median of the maxima of [stretches] consecutive, equal parts of
   a series (fewer when the series is shorter). *)
let median_of_maxima ~stretches (xs : float array) : float =
  let n = Array.length xs in
  let k = max 1 (min stretches n) in
  median
    (Array.init k (fun i ->
         Array.fold_left Float.max neg_infinity
           (Array.sub xs (i * n / k) (((i + 1) * n / k) - (i * n / k)))))

(* A growable float sample. *)
type sample = { mutable data : float array; mutable len : int }

let sample () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

(* -- the result line ------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ String.escaped s ^ "\""

(* Human-readable report on stdout: one line per metric, with its unit
   and the number of samples behind it. *)
let print_report ~title (ms : metric list) =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16s %-8s (n=%d)\n" m.name (json_number m.value)
        m.unit_ m.samples)
    ms

(* The last line of stdout: the contract's result object. *)
let print_result ~correct ~attempted ~failed (ms : metric list) =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_number m.value) (json_string m.unit_))
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* -- host speed ------------------------------------------------------------

   The host's speed drifts by up to 2x within seconds as other tenants'
   load comes and goes, and that slows the compiler and any other code
   alike.  So each timed operation runs between two runs of a fixed
   reference kernel (the benchmark's own code, independent of the
   program under test), and its time is also expressed at the
   reference host's speed: wall time times [kernel_ref_ns] over the
   mean of the two kernel times.

   The kernel does what the compiler does most, allocating small
   blocks, hashing strings and sorting lists, but it must not pay for
   the program: the collector's work left over from the operation
   before it, or the cache the operation took.  So the minor heap is
   emptied before it, as part of the timed operation, which pays for
   its own garbage (the kernel then allocates less than the minor heap
   holds, and no collection runs inside it), and an untimed run warms
   the cache. *)

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

let kernel () =
  for round = 1 to 6 do
    let h = Hashtbl.create 16 in
    for i = 0 to 249 do
      Hashtbl.replace h (string_of_int (((i * 7919) + round) mod 10007)) i
    done;
    let l = List.init 250 (fun i -> ((i * 31337) + round) land 0xffff) in
    ignore (Sys.opaque_identity (List.sort compare l));
    ignore (Sys.opaque_identity (Hashtbl.length h))
  done

(* the kernel's time on the reference host (2 cores at 2.1 GHz, OCaml
   5.1.1, an uncontended stretch) *)
let kernel_ref_ns = 0.5e6

let kernel_ns () =
  Gc.minor ();
  kernel ();
  let t0 = clock_ns () in
  kernel ();
  clock_ns () -. t0

(* Times operations between kernel runs: [time f] runs [f] and a minor
   collection, then the kernel, and returns [f]'s result with the wall
   seconds of both and the factor that turns them into reference-host
   seconds. *)
type speed = { mutable before : float }

let speed () = { before = kernel_ns () }

let time (s : speed) (f : unit -> 'a) : 'a * float * float =
  let t0 = clock_ns () in
  let r = f () in
  Gc.minor ();
  let dt = (clock_ns () -. t0) /. 1e9 in
  let after = kernel_ns () in
  let factor = kernel_ref_ns /. ((s.before +. after) /. 2.) in
  s.before <- after;
  (r, dt, factor)
