(** Structured tracing in Chrome trace-event form.

    Spans and instant events accumulate in per-domain buffers that
    outlive their domains, so tracing a batch fanned over a {!Pool}
    works: serialize after the parallel region joins and every worker's
    events appear, keyed by domain id.  All entry points are no-ops
    (one relaxed atomic load) when tracing is disabled, the default. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;  (** ['X'] complete span, ['i'] instant *)
  ev_ts : float;  (** microseconds since the trace epoch *)
  ev_dur : float;  (** microseconds; 0 for instants *)
  ev_tid : int;  (** domain id *)
  ev_args : (string * string) list;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording one complete ('X') event
    covering its execution (tagged with ["error"] if [f] raises, then
    re-raised).  Also accumulates the duration into the
    ["phase.<name>.us"] {!Metrics} counter when metrics are enabled —
    with or without tracing, so [--stats] alone reports phase times. *)

val now_us : unit -> float
(** Microseconds since the trace epoch: the clock spans are timed by. *)

val add_total : ?cat:string -> string -> ts:float -> dur:float -> unit
(** [add_total name ~ts ~dur] reports [dur] microseconds summed over
    many short intervals, the first starting at [ts], as one span: a
    complete ('X') event when tracing (it covers [ts, ts + dur], inside
    whatever span the intervals fell in), and [dur] added to the
    ["phase.<name>.us"] counter when metrics are enabled. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a zero-duration ('i') event. *)

val events : unit -> event list
(** All recorded events, merged across domains, sorted by timestamp. *)

val event_count : unit -> int
val clear : unit -> unit

val to_json_string : unit -> string
(** The merged events as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]), loadable in about:tracing / Perfetto. *)

val write_json : string -> unit
