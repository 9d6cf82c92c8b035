(** The daemon's observability surface: monotonic counters plus cumulative
    per-phase seconds, mutex-serialized (the request scheduler updates them
    from pool workers); per-request trace spans; a JSON dump answering the
    [stats] request. *)

(** One request's trace, owned by that request (no locking); folded into
    the cumulative phase counters via {!record_span} on completion. *)
type span = {
  mutable parse_s : float;
  mutable extract_s : float;
  mutable traverse_s : float;
  mutable measure_s : float;
}

val span_create : unit -> span

val span_fields : span -> (string * float) list
(** Phase name -> seconds, in phase order (the wire format of an answer's
    trace). *)

(** Connection-level counters, owned by the serving loop ({!Loop}) and
    reported by the daemon and the router alike under these names.  Only
    the loop's thread bumps them, so they live outside the mutex. *)
type io = {
  mutable protocol_errors : int;  (** bad frames / undecodable bodies *)
  mutable write_stalls : int;  (** clients dropped for not draining *)
  mutable reaped_idle : int;  (** closed for total silence *)
  mutable reaped_trickle : int;  (** closed for stalling mid-frame *)
  mutable refused : int;  (** closed at once past the connection cap *)
  mutable accept_errors : int;  (** [accept] failures but EAGAIN/EINTR *)
}

val io_create : unit -> io

val io_fields : io -> (string * int) list
(** The [io] counters by their stats-JSON names, fixed order. *)

type t = {
  mu : Mutex.t;
  io : io;
  started : float;
  mutable requests : int;
  mutable answers : int;
  mutable request_errors : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable degraded : int;
  mutable retries_absorbed : int;
  mutable measure_failures : int;
  mutable extractor_forwards : int;
  mutable traversals : int;
  mutable measured_runs : int;
  mutable asym_pruned : int;
  mutable batches : int;
  mutable batched_requests : int;
  mutable max_batch : int;
  mutable phase_b_batches : int;
      (** phase-B dispatches that carried at least one distinct miss *)
  mutable phase_b_misses : int;  (** distinct misses those dispatches carried *)
  mutable phase_b_max : int;  (** largest distinct-miss group so far *)
  phase_b_hist : int array;
      (** distinct-miss-count histogram, buckets 1 / 2-3 / 4-7 / 8-15 / 16+ *)
  mutable vm_batched_runs : int;
      (** per-kernel-slot batched plan executions (DESIGN.md §14) *)
  mutable cache_persist_failures : int;
  mutable shed : int;  (** queries answered [Busy] past the high-water mark *)
  mutable deadline_misses : int;
      (** answers that blew their [deadline_ms] (degraded reason "deadline") *)
  mutable parse_s : float;
  mutable extract_s : float;
  mutable traverse_s : float;
  mutable measure_s : float;
}

val create : unit -> t

val bump : t -> (t -> unit) -> unit
(** Run a counter update under the mutex:
    [bump m (fun m -> m.cache_hits <- m.cache_hits + 1)]. *)

val record_batch : t -> int -> unit
(** Note a dispatched micro-batch of [n] queries. *)

val record_phase_b : t -> int -> unit
(** Note a phase-B dispatch of [n] distinct cache misses (no-op when
    [n = 0]): bumps the batch/miss counters, the running maximum and the
    miss-count histogram bucket. *)

val record_span : t -> span -> unit

val counters : t -> (string * int) list
(** Snapshot of every integer counter, fixed order. *)

val counter : t -> string -> int option

val to_json :
  ?extra_ints:(string * int) list -> ?extra:(string * string) list -> t -> string
(** The [stats] response body: counters plus any [extra_ints] gauges
    (cache size, index size...), cumulative phase seconds, uptime, any
    [extra] string fields (cache identity, socket path...), and the
    protocol version. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (quotes, backslashes and
    control bytes escaped). *)

val json_counter : string -> string -> int option
(** [json_counter json name] pulls an integer counter back out of a
    {!to_json} dump — the client-side half of the loop. *)
