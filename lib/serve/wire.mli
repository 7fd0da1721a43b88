(** Wire protocol of the [pascd] compile service.

    Frames are length-prefixed: a 32-bit big-endian payload length
    followed by the payload, in both directions.  Payloads are tagged by
    their first byte and carry fixed-width integers big-endian, so the
    encoding is byte-identical across platforms and a capture of one
    session replays exactly.

    The protocol is deliberately minimal: one request per frame, one
    reply per request, replies matched to compile requests by the
    caller-chosen [id] (replies may arrive out of request order — cached
    results are answered inline while misses wait for the compile
    pool). *)

type options = {
  cse : bool option;  (** [None] = server default (the {!Pipeline.compile} default) *)
  checks : bool option;
}

val default_options : options
(** Everything defaulted — compiles exactly like
    [Pipeline.Batch.compile_all] with no overrides, which is what makes
    served batches fingerprint-identical to direct ones. *)

type request =
  | Compile of { id : int; options : options; source : string }
  | Stats  (** counters snapshot, as a [Stats_reply] text *)
  | Ping  (** liveness probe; answered [Ack] *)
  | Pause of int
      (** stop draining the compile queue for this many milliseconds
          (admission control keeps running, so the queue fills and
          overflow requests get [Overloaded]) — the deterministic
          backpressure test hook *)
  | Hello
      (** identity probe; answered [Hello_reply] with the daemon's
          target name, so a client can refuse to feed sources meant for
          one machine to a daemon serving another *)
  | Shutdown  (** drain, answer [Bye], exit the serve loop *)

type outcome = (string * string, string) result
(** A compile's observable output: [Ok (listing, object_bytes)] or
    [Error message] — the same bytes {!Pipeline.Batch.fingerprint}
    digests. *)

type reply =
  | Compiled of { id : int; cached : bool; outcome : outcome }
  | Overloaded of { id : int; retry_after_ms : int }
      (** admission control rejected the request: the pending queue was
          full.  Nothing was compiled.  [retry_after_ms] is the server's
          backoff hint — how long it expects to need before the queue
          has room (derived from any active pause plus the queue depth);
          0 means "retry whenever" (also what decoding a pre-hint peer's
          5-byte reply yields). *)
  | Stats_reply of string  (** [key value] lines *)
  | Hello_reply of string  (** the serving target's registry name *)
  | Ack
  | Bye

val max_frame : int
(** Upper bound on payload sizes in both directions (defence against
    garbage on the socket, not a protocol limit).  The read side rejects
    larger length prefixes; {!write_frame} refuses to emit them. *)

exception Frame_too_large of int
(** Raised by {!write_frame} before any byte is written when the payload
    exceeds {!max_frame} — an oversized frame could never be received,
    so sending it would only desynchronize the stream. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run [f], retrying on [EINTR] — the wrapper every blocking
    [read]/[write]/[select] in this protocol goes through, so signal
    delivery (timers, profilers) can never tear a frame. *)

val oversized_substitute : reply -> size:int -> reply
(** The reply a server sends in place of one whose encoding came out at
    [size] > {!max_frame}: same id, structured [Error] outcome.  Its own
    encoding always fits. *)

val options_tag : options -> string
(** Canonical 2-byte encoding of [options] — part of the result cache
    key, so the same source compiled under different options never
    collides. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame, looping until all bytes are out.
    Raises [Unix.Unix_error] on a dead peer. *)

val read_frame : Unix.file_descr -> string option
(** Read one frame, blocking; [None] on clean EOF before a length
    prefix.  Raises [Failure] on truncated or oversized frames. *)

val fingerprint : reply array -> string
(** Digest an id-ordered reply array exactly the way
    {!Pipeline.Batch.fingerprint} digests its result array: a served
    batch and a direct batch produced the same compilations iff the two
    fingerprints are equal.  Non-[Compiled] replies fold in a distinct
    separator so a dropped or overloaded slot can never collide with a
    real result. *)
