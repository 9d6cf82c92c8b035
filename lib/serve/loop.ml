(* The serving event loop under both `waco serve` and `waco route`: one
   [select] thread owns the listen socket, the admitted clients and the
   dialed links (the router's shard connections).  A round accepts, reads
   links then clients, runs the handler's end-of-round hook, then reaps.
   Connections sit in a table keyed by fd, so a round does O(readable)
   lookups on top of [select]'s own scan.  The [Robust.Faults] network
   hooks sit on client reads and on every write — never on link reads —
   so the deterministic chaos points fire where they always have. *)

type io = {
  fd : Unix.file_descr;
  inbuf : Protocol.Inbuf.t;
  mutable alive : bool;
  mutable last_byte : float;  (* when the last byte arrived (or accept time) *)
  mutable partial_since : float;
      (* when the current incomplete frame started accumulating; 0.0 at a
         frame boundary *)
}

type 'a conn = { io : io; state : 'a }

type link = {
  lio : io;
  on_link_frame : int -> string -> unit;
  on_down : string -> unit;
}

type 'a entry = Client of 'a conn | Link of link

type 'a t = {
  listen : string;
  idle_timeout_s : float;
  frame_timeout_s : float;
  write_timeout_s : float;
  log : string -> unit;
  counters : Metrics.io;
  table : (Unix.file_descr, 'a entry) Hashtbl.t;
  mutable clients : 'a conn list;  (* newest first: select and read order *)
  mutable links : link list;  (* dial order *)
  mutable nclients : int;
  mutable bound : string option;
  mutable stopping : bool;
}

(* [select] cannot watch an fd numbered at or past FD_SETSIZE (it fails
   with EINVAL for the whole set).  The cap leaves headroom below it for
   the listen socket, the router's links and the files the daemon opens
   (cache persists, path-sourced matrices). *)
let fd_setsize = 1024
let max_conns = fd_setsize - 128

(* A [Unix.file_descr] is the fd number on the POSIX systems this loop
   runs on. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

let create ~idle_timeout_s ~frame_timeout_s ~write_timeout_s ?(log = ignore)
    ?(counters = Metrics.io_create ()) listen =
  (* Fail fast on a malformed listen spec: a daemon that parses its
     endpoint only at [run] time dies after the expensive model load. *)
  ignore (Addr.of_string listen);
  { listen; idle_timeout_s; frame_timeout_s; write_timeout_s; log; counters;
    table = Hashtbl.create 64; clients = []; links = []; nclients = 0;
    bound = None; stopping = false }

let bound t = t.bound
let counters t = t.counters
let connections t = t.nclients
let stop t = t.stopping <- true
let state c = c.state
let alive c = c.io.alive

let new_io fd =
  let inbuf = Protocol.Inbuf.create () in
  { fd; inbuf; alive = true; last_byte = Robust.mono_now (); partial_since = 0.0 }

let close_io t io =
  if io.alive then begin
    io.alive <- false;
    Hashtbl.remove t.table io.fd;
    try Unix.close io.fd with Unix.Unix_error _ -> ()
  end

let close t c =
  if c.io.alive then t.nclients <- t.nclients - 1;
  close_io t c.io

let drop_link t l = close_io t l.lio

let link_down t l reason =
  if l.lio.alive then begin
    drop_link t l;
    l.on_down reason
  end

exception Write_stall

(* The injected partial read/write: a hostile peer (or kernel) moving a few
   bytes at a time. *)
let capped len =
  match Robust.Faults.net_io_cap () with Some cap -> min cap len | None -> len

(* Bounded non-blocking write: the whole frame goes out, or the peer is
   declared stalled after [write_timeout_s] of not draining.  Every fd the
   loop owns is non-blocking, so a full socket buffer surfaces as EAGAIN
   and we wait for writability with the remaining budget — never longer.
   The [Faults] hooks simulate a hostile network here: capped partial
   writes and a drop mid-frame. *)
let write_bounded t fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let deadline = Robust.mono_now () +. t.write_timeout_s in
  let rec go off =
    if off < n then begin
      if Robust.Faults.net_drop_tick () then
        raise (Unix.Unix_error (Unix.EPIPE, "write", "injected drop"));
      match Unix.write fd b off (capped (n - off)) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          let remaining = deadline -. Robust.mono_now () in
          if remaining <= 0.0 then raise Write_stall;
          (match Unix.select [] [ fd ] [] remaining with
          | _, [], _ -> raise Write_stall
          | _ -> ());
          go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

let send t c frame =
  if c.io.alive then
    match write_bounded t c.io.fd frame with
    | () -> ()
    | exception Write_stall ->
        t.counters.write_stalls <- t.counters.write_stalls + 1;
        t.log "client not draining responses; dropping connection";
        close t c
    | exception Unix.Unix_error _ ->
        t.log "client went away mid-response";
        close t c

let send_link t l frame =
  if l.lio.alive then
    match write_bounded t l.lio.fd frame with
    | () -> ()
    | exception Write_stall -> link_down t l "write stalled"
    | exception Unix.Unix_error (e, _, _) -> link_down t l (Unix.error_message e)

let dial t ~timeout_s addr ~on_frame ~on_down =
  let fd = Addr.connect ~timeout_s addr in
  if fd_number fd >= fd_setsize then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith "Loop.dial: fd out of select's range"
  end;
  Unix.set_nonblock fd;
  let l = { lio = new_io fd; on_link_frame = on_frame; on_down } in
  Hashtbl.replace t.table fd (Link l);
  t.links <- t.links @ [ l ];
  l

(* Peel every complete frame off [io]'s buffer, then note whether a partial
   frame is left behind (for the reaper).  [on_frame] may close [io]. *)
let drain io ~on_frame ~on_bad =
  let rec go () =
    if io.alive then
      match Protocol.Inbuf.next io.inbuf with
      | `Need _ -> ()
      | `Bad reason -> on_bad reason
      | `Frame (msg, body, _) ->
          on_frame msg body;
          go ()
  in
  go ();
  if Protocol.Inbuf.length io.inbuf = 0 then io.partial_since <- 0.0
  else if io.partial_since = 0.0 then io.partial_since <- Robust.mono_now ()

(* Read what [io]'s peer has sent and drain the complete frames; [gone]
   runs on EOF or a read error. *)
let read_into chunk io ~len ~gone ~on_frame ~on_bad =
  match Unix.read io.fd chunk 0 len with
  | 0 -> gone "closed by peer"
  | n ->
      io.last_byte <- Robust.mono_now ();
      Protocol.Inbuf.add io.inbuf chunk 0 n;
      drain io ~on_frame ~on_bad
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (e, _, _) -> gone (Unix.error_message e)

let read_client t chunk ~on_frame c =
  if Robust.Faults.net_drop_tick () then close t c
  else
    read_into chunk c.io ~len:(capped (Bytes.length chunk))
      ~gone:(fun _ -> close t c)
      ~on_frame:(on_frame c)
      ~on_bad:(fun reason ->
        t.counters.protocol_errors <- t.counters.protocol_errors + 1;
        send t c
          (Protocol.response_to_frame (Protocol.Error_msg ("protocol: " ^ reason)));
        close t c)

let read_link t chunk l =
  read_into chunk l.lio ~len:(Bytes.length chunk) ~gone:(link_down t l)
    ~on_frame:l.on_link_frame ~on_bad:(fun reason ->
      link_down t l ("damaged frame: " ^ reason))

let accept_all t listen_fd ~init =
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _ ->
        if t.nclients >= max_conns || fd_number fd >= fd_setsize then begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.counters.refused <- t.counters.refused + 1
        end
        else begin
          (* Connection fds stay non-blocking for their whole life: reads
             can spuriously EAGAIN and writes go through the bounded
             writer. *)
          Unix.set_nonblock fd;
          Addr.nodelay fd;
          let c = { io = new_io fd; state = init () } in
          Hashtbl.replace t.table fd (Client c);
          t.clients <- c :: t.clients;
          t.nclients <- t.nclients + 1
        end;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (e, _, _) ->
        t.counters.accept_errors <- t.counters.accept_errors + 1;
        t.log ("accept failed: " ^ Unix.error_message e)
  in
  go ()

(* A client stalled mid-frame (a trickler feeding a byte per tick, or a drop
   that left half a header) dies after [frame_timeout_s]; one that has sent
   nothing at all for [idle_timeout_s] dies too.  A link stalled mid-frame
   is a dead peer: every response behind that frame is stuck. *)
let reap t =
  let now = Robust.mono_now () in
  List.iter
    (fun c ->
      let io = c.io in
      if io.alive then
        if io.partial_since > 0.0 && now -. io.partial_since > t.frame_timeout_s
        then begin
          t.counters.reaped_trickle <- t.counters.reaped_trickle + 1;
          t.log "reaped connection stalled mid-frame";
          close t c
        end
        else if now -. io.last_byte > t.idle_timeout_s then begin
          t.counters.reaped_idle <- t.counters.reaped_idle + 1;
          t.log "reaped idle connection";
          close t c
        end)
    t.clients;
  List.iter
    (fun l ->
      if
        l.lio.alive && l.lio.partial_since > 0.0
        && now -. l.lio.partial_since > t.frame_timeout_s
      then link_down t l "stalled mid-frame")
    t.links

let run ?(on_ready = ignore) ?(on_round = ignore) t ~init ~on_frame =
  let addr = Addr.of_string t.listen in
  (* A backlog as deep as the cap: a burst of connects queues in the
     kernel until the next round accepts it, instead of having SYNs
     dropped and retried a second later. *)
  let listen_fd = Addr.listen ~backlog:max_conns addr in
  let addr = Addr.resolve_bound addr listen_fd in
  (* A dying peer must not kill the process with SIGPIPE; writes surface
     EPIPE instead, handled per connection. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  let finally () =
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Addr.cleanup addr;
    List.iter (close t) t.clients;
    List.iter (drop_link t) t.links;
    match prev_sigpipe with
    | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
    | None -> ()
  in
  (* The select timeout doubles as the reaper tick: fine-grained enough to
     honor short test timeouts, never busier than once per 20 ms. *)
  let tick =
    Float.max 0.02
      (Float.min 1.0 (Float.min t.idle_timeout_s t.frame_timeout_s /. 4.0))
  in
  Fun.protect ~finally (fun () ->
      t.bound <- Some (Addr.to_string addr);
      on_ready ();
      let chunk = Bytes.create 65536 in
      while not t.stopping do
        t.clients <- List.filter alive t.clients;
        t.links <- List.filter (fun l -> l.lio.alive) t.links;
        let fds =
          (listen_fd :: List.map (fun l -> l.lio.fd) t.links)
          @ List.map (fun c -> c.io.fd) t.clients
        in
        match Unix.select fds [] [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            (* [select] keeps the order of [fds]: the listen socket, then
               links, then clients. *)
            List.iter
              (fun fd ->
                if fd = listen_fd then accept_all t listen_fd ~init
                else
                  match Hashtbl.find_opt t.table fd with
                  | Some (Link l) -> read_link t chunk l
                  | Some (Client c) -> read_client t chunk ~on_frame c
                  | None -> ())
              readable;
            on_round ();
            reap t
      done)
