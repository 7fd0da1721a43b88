(* The serve-mix workload's daemon and load generator.

   The daemon is this executable re-run as [bench.exe daemon]: it builds
   the tables into its own empty cache directory, binds a socket in the
   run's private directory and serves [Serve.Server] with a pool of at
   most nproc domains, as [pasc serve] does.  It writes two lines to
   its stdout, a pipe the benchmark reads: once it is ready to serve,
   the wall time it spent measuring the host speed on its own core, and
   the reference kernel's times before and after starting up (a first
   measurement, in the fresh process, only warms up); when it exits,
   its allocation and peak heap while serving.

   The load is a closed loop from this one process: [conns]
   connections, each sending its next request only when the previous
   reply is in.  The next request always carries the next index of the
   seeded request stream. *)

module Wire = Serve.Wire

(* -- the daemon side ----------------------------------------------------------- *)

let daemon_main ~socket ~cache_dir ~jobs =
  let in_kernel = ref 0. in
  let kernel_ns () =
    let t0 = Util.clock_ns () in
    let k = Util.kernel_ns () in
    in_kernel := !in_kernel +. (Util.clock_ns () -. t0);
    k
  in
  ignore (kernel_ns ());
  let k0 = kernel_ns () in
  let text = Util.spec_text () in
  let tables =
    match Cogg.Tables_cache.build_text ~cache_dir text with
    | Ok (t, _) -> t
    | Error es -> Util.fail "daemon: %s" (Layers.errors es)
  in
  let table_key = Cogg.Tables_cache.key ~mode:Cogg.Lookahead.Slr text in
  let pool = if jobs > 1 then Some (Cogg.Pool.create ~domains:jobs ()) else None in
  let server =
    match Serve.Server.create ?pool ~table_key ~socket_path:socket tables with
    | Ok s -> s
    | Error m -> Util.fail "daemon: %s" m
  in
  (* after the pool has joined, the statistics include its domains *)
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  (* the start-up pays for its own garbage, as a timed step does *)
  Gc.minor ();
  let k1 = kernel_ns () in
  (* The peak heap while serving: the heap is compacted once started,
     so that the table construction leaves none of its peak, and then
     sampled at the end of every major cycle and at shutdown.  The
     compaction is left out of the start-up time, like the kernel. *)
  let t0 = Util.clock_ns () in
  Gc.compact ();
  let excluded = !in_kernel +. (Util.clock_ns () -. t0) in
  let peak = ref (Util.heap_mb ()) in
  let sample () = peak := Float.max !peak (Util.heap_mb ()) in
  let alarm = Gc.create_alarm sample in
  let w0 = words () in
  Printf.printf "%.0f %.0f %.0f\n%!" excluded k0 k1;
  Serve.Server.run server;
  sample ();
  Gc.delete_alarm alarm;
  Option.iter Cogg.Pool.shutdown pool;
  Printf.printf "%.0f %.6f %d\n%!" (words () -. w0) !peak
    (Serve.Server.stats server).Serve.Server.compiles

(* -- process control ----------------------------------------------------------- *)

type daemon = {
  pid : int;
  socket : string;
  report : in_channel;  (** the daemon's stdout *)
  mutable reaped : bool;
}

let live : daemon list ref = ref []

let reap d =
  if not d.reaped then begin
    d.reaped <- true;
    close_in_noerr d.report;
    let rec wait deadline =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Util.now () < deadline ->
          Unix.sleepf 0.01;
          wait deadline
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline
      | exception Unix.Unix_error _ -> ()
    in
    wait (Util.now () +. 10.);
    live := List.filter (fun d' -> d' != d) !live
  end

(* Kill every daemon still running: the exit path of failures and
   signals. *)
let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d)
    !live

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)

let request fd (r : Wire.request) : Wire.reply =
  Wire.write_frame fd (Wire.encode_request r);
  match Wire.read_frame fd with
  | None -> Util.fail "daemon closed the connection"
  | Some payload -> (
      match Wire.decode_reply payload with
      | Ok reply -> reply
      | Error m -> Util.fail "undecodable reply: %s" m)

(* Start a daemon and wait until it answers [Ping].  Returns it with
   the start-up time, its kernel runs left out, in wall seconds and in
   reference-host seconds at the speed the daemon measured on its own
   core. *)
let spawn ~dir ~index ~jobs : daemon * float * float =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" index) in
  let cache_dir = Filename.concat dir (Printf.sprintf "cache%d" index) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Util.now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; "--socket"; socket; "--cache-dir";
         cache_dir; "--jobs"; string_of_int jobs |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let d = { pid; socket; report = Unix.in_channel_of_descr rd; reaped = false } in
  live := d :: !live;
  let deadline = t0 +. 60. in
  let rec ping () =
    if Util.now () > deadline then Util.fail "daemon did not answer ping";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        d.reaped <- true;
        Util.fail "daemon exited during start-up");
    match connect socket with
    | Error _ ->
        Unix.sleepf 0.001;
        ping ()
    | Ok fd ->
        let r = request fd Wire.Ping in
        Unix.close fd;
        if r <> Wire.Ack then Util.fail "daemon answered ping wrongly"
  in
  ping ();
  let wall = Util.now () -. t0 in
  match String.split_on_char ' ' (input_line d.report) with
  | [ total; k0; k1 ] ->
      let factor =
        Util.kernel_ref_ns /. ((float_of_string k0 +. float_of_string k1) /. 2.)
      in
      let wall = wall -. (float_of_string total /. 1e9) in
      (d, wall, wall *. factor)
  | _ | (exception End_of_file) -> Util.fail "daemon sent no start-up line"

type daemon_report = { alloc_words : float; peak_mb : float; compiles : int }

(* Shut the daemon down and collect its report. *)
let shutdown d : daemon_report =
  (match connect d.socket with
  | Ok fd ->
      (try ignore (request fd Wire.Shutdown) with _ -> ());
      Unix.close fd
  | Error _ -> ());
  let line = try input_line d.report with End_of_file -> "" in
  reap d;
  match String.split_on_char ' ' line with
  | [ w; p; c ] ->
      {
        alloc_words = float_of_string w;
        peak_mb = float_of_string p;
        compiles = int_of_string c;
      }
  | _ -> Util.fail "daemon exited without a report"

let stats d : (string * int) list =
  match connect d.socket with
  | Error m -> Util.fail "stats: %s" m
  | Ok fd -> (
      let r = request fd Wire.Stats in
      Unix.close fd;
      match r with
      | Wire.Stats_reply text ->
          String.split_on_char '\n' text
          |> List.filter_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
                 | _ -> None)
      | _ -> Util.fail "stats: unexpected reply")

(* -- the closed loop ----------------------------------------------------------- *)

type completed = {
  k : int;  (** request index *)
  ms : float;  (** round trip, wall *)
  factor : float;  (** the host speed factor of its window *)
  reply : Wire.reply;
}

type loop_result = {
  completed : int;
  wall_s : float;  (** wall time the windows ran *)
  ref_s : float;  (** the same, in reference-host seconds *)
}

(* Keep every connection busy with requests [!next], [!next + 1], ...
   until [deadline], then collect the replies still in flight; returns
   the completed requests, the factor still unset. *)
let window fds ~deadline ~next ~source : completed list =
  let conns = Array.length fds in
  let inflight = Array.make conns (0, 0.) in
  let send c =
    let k = !next in
    incr next;
    inflight.(c) <- (k, Util.clock_ns ());
    Wire.write_frame fds.(c)
      (Wire.encode_request
         (Wire.Compile { id = k; options = Wire.default_options; source = source k }))
  in
  let busy = Array.make conns true in
  Array.iteri (fun c _ -> send c) fds;
  let done_ = ref [] in
  while Array.exists Fun.id busy do
    let ready, _, _ =
      Wire.retry_eintr (fun () ->
          Unix.select
            (List.filteri (fun c _ -> busy.(c)) (Array.to_list fds))
            [] [] 10.)
    in
    if ready = [] then Util.fail "daemon stopped answering";
    List.iter
      (fun fd ->
        let rec find c = if fds.(c) == fd then c else find (c + 1) in
        let c = find 0 in
        let k, t0 = inflight.(c) in
        let payload =
          match Wire.read_frame fd with
          | Some p -> p
          | None -> Util.fail "daemon closed the connection"
        in
        let ms = (Util.clock_ns () -. t0) /. 1e6 in
        let reply =
          match Wire.decode_reply payload with
          | Ok r -> r
          | Error m -> Util.fail "undecodable reply: %s" m
        in
        done_ := { k; ms; factor = 1.; reply } :: !done_;
        if Util.now () < deadline then send c else busy.(c) <- false)
      ready
  done;
  List.rev !done_

(* The load runs in windows this long, with the host speed measured
   between them while the daemon is idle. *)
let window_s = 0.05

(* Run the closed loop for [seconds] over [conns] connections, starting
   at request [first]. *)
let closed_loop ~socket ~conns ~seconds ~first ~source ~on_reply : loop_result =
  let fds =
    Array.init conns (fun _ ->
        match connect socket with
        | Ok fd -> fd
        | Error m -> Util.fail "connect: %s" m)
  in
  let next = ref first in
  let stop = Util.now () +. seconds in
  let sp = Util.speed () in
  let r = ref { completed = 0; wall_s = 0.; ref_s = 0. } in
  while Util.now () < stop do
    let done_, dt, factor =
      Util.time sp (fun () ->
          window fds ~deadline:(Float.min stop (Util.now () +. window_s)) ~next ~source)
    in
    List.iter (fun c -> on_reply { c with factor }) done_;
    r :=
      {
        completed = !r.completed + List.length done_;
        wall_s = !r.wall_s +. dt;
        ref_s = !r.ref_s +. (dt *. factor);
      }
  done;
  Array.iter Unix.close fds;
  !r
