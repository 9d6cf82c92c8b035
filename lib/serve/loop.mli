(** The serving event loop shared by the daemon ({!Server}) and the router
    ({!Router}): one [select] thread owning the listen socket, the admitted
    client connections and any dialed links.

    A round accepts, reads links then clients (handing complete frames to
    the handler), runs the handler's end-of-round hook, then reaps clients
    stalled mid-frame or silent and links stalled mid-frame.  Receive is
    linear in the bytes received ({!Protocol.Inbuf}), writes are bounded in
    time, and admission is capped at {!max_conns}.  Refusals, reaps, write
    stalls and framing errors land in the {!Metrics.io} counters.  ['a] is
    the handler's per-client state. *)

type 'a t

type 'a conn
(** An admitted client connection. *)

type link
(** A dialed connection (a router's shard link): read before clients, never
    reaped for being idle, free of injected read faults.  It goes down —
    its [on_down] runs once — when it closes, resets, sends a damaged
    frame, stalls mid-frame or fails a write. *)

val max_conns : int
(** Admitted clients at once, below [FD_SETSIZE] with headroom for the
    listen socket, links and files.  Past it (or at an fd number [select]
    cannot watch) a new connection is closed at once and counted
    [refused]. *)

val create :
  idle_timeout_s:float ->
  frame_timeout_s:float ->
  write_timeout_s:float ->
  ?log:(string -> unit) ->
  ?counters:Metrics.io ->
  string ->
  'a t
(** A loop for an {!Addr} listen spec, validated now and bound by {!run}.
    [idle_timeout_s] reaps a silent client, [frame_timeout_s] one (or a
    link) stalled mid-frame, [write_timeout_s] bounds one frame write.
    [counters] (default fresh) receives the loop's counts. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?on_round:(unit -> unit) ->
  'a t ->
  init:(unit -> 'a) ->
  on_frame:('a conn -> int -> string -> unit) ->
  unit
(** Bind, call [on_ready], then serve rounds until {!stop}.  [init] makes
    an accepted client's state; [on_frame conn msg body] gets each complete
    client frame; [on_round] runs after each round's reads.  A client's
    damaged framing answers an [Error_msg], counts in [protocol_errors] and
    closes it.  An [accept] error other than EAGAIN/EINTR is counted in
    [accept_errors], never raised.  SIGPIPE is ignored for the duration.
    On exit, also exceptional, every connection and link is closed and a
    Unix socket file unlinked. *)

val stop : 'a t -> unit
(** End {!run} after the current round. *)

val bound : 'a t -> string option
(** The endpoint actually bound ([tcp:HOST:0] resolved), once listening. *)

val counters : 'a t -> Metrics.io

val connections : 'a t -> int
(** Client connections currently admitted. *)

val state : 'a conn -> 'a
val alive : 'a conn -> bool

val send : 'a t -> 'a conn -> string -> unit
(** Write one whole frame within the write timeout.  A client that does not
    drain is dropped (counted in [write_stalls]); one that went away is
    closed.  No-op on a closed connection. *)

val dial :
  'a t ->
  timeout_s:float ->
  Addr.t ->
  on_frame:(int -> string -> unit) ->
  on_down:(string -> unit) ->
  link
(** Connect within [timeout_s] and register a link; raises like
    {!Addr.connect}.  [on_down reason] runs after the loop has closed a
    dead link. *)

val send_link : 'a t -> link -> string -> unit
(** {!send} for a link; a failed or stalled write takes the link down. *)

val drop_link : 'a t -> link -> unit
(** Close a link without running its [on_down].  Idempotent. *)
