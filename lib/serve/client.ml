(* The `waco query` side of the wire: a blocking client over the same framed
   protocol.  Deliberately dumb — frame out, frame in — so tests can also
   drive it in pipelined mode ([send] N times, [recv] N times) to exercise
   the daemon's micro-batching.

   The failure surface is bounded: [connect] is a non-blocking connect with
   a select wait instead of an unbounded hang, [recv] takes an optional
   wall-clock timeout, and [query_with_retry] wraps the whole
   connect/query/close round trip in capped exponential backoff with
   deterministic jitter seeded by the request's [qid] — the same qid on
   every attempt, so a retried request that lands after a half-processed
   first attempt re-answers from the daemon's fingerprint cache instead of
   recomputing (idempotent by construction). *)

type t = {
  fd : Unix.file_descr;
  inbuf : Protocol.Inbuf.t;
  mutable closed : bool;
}

(* [path] is an [Addr] spec: a bare Unix-socket path (every pre-TCP
   caller), [unix:PATH], or [tcp:HOST:PORT].  The bounded non-blocking
   connect lives in [Addr.connect] so the router's shard links share it. *)
let connect ?(timeout_s = 5.0) path =
  let fd = Addr.connect ~timeout_s (Addr.of_string path) in
  { fd; inbuf = Protocol.Inbuf.create (); closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let send t (req : Protocol.request) =
  if t.closed then failwith "Client.send: connection closed";
  write_all t.fd (Protocol.request_to_frame req)

(* Blocking read of exactly one response frame, optionally bounded by
   [timeout_s] of total wall clock.  Raises [Failure] when the server hangs
   up mid-frame, sends damaged framing, or the timeout expires — client
   code treats any of these as a dead daemon. *)
let recv ?timeout_s t =
  if t.closed then failwith "Client.recv: connection closed";
  let deadline = Option.map (fun s -> Robust.mono_now () +. s) timeout_s in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Protocol.Inbuf.next t.inbuf with
    | `Frame (msg, body, _) -> (
        match Protocol.response_of_frame ~msg body with
        | Ok resp -> resp
        | Error e -> failwith ("Client.recv: undecodable response: " ^ e))
    | `Bad reason -> failwith ("Client.recv: damaged frame: " ^ reason)
    | `Need _ ->
        (match deadline with
        | Some d -> (
            let remaining = d -. Robust.mono_now () in
            if remaining <= 0.0 then
              failwith "Client.recv: timed out waiting for response";
            match Unix.select [ t.fd ] [] [] remaining with
            | [], _, _ -> failwith "Client.recv: timed out waiting for response"
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | None -> ());
        (match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "Client.recv: server closed the connection"
        | n -> Protocol.Inbuf.add t.inbuf chunk 0 n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let request ?timeout_s t req =
  send t req;
  recv ?timeout_s t

(* A query's response: a definitive result, or a [Busy] shed's hint. *)
let query_outcome = function
  | Protocol.Answer a -> `Done (Ok a)
  | Protocol.Busy { retry_after_ms } -> `Busy retry_after_ms
  | Protocol.Error_msg e -> `Done (Error e)
  | Protocol.Stats_json _ | Protocol.Pong | Protocol.Bye ->
      `Done (Error "unexpected response type to query")

let query ?(measure = true) ?(deadline_ms = 0) ?kernel ?(qid = "q") ?timeout_s
    t source =
  match
    query_outcome
      (request ?timeout_s t
         (Protocol.Query { Protocol.qid; source; measure; deadline_ms; kernel }))
  with
  | `Done r -> r
  | `Busy ms -> Error (Printf.sprintf "busy: retry after %d ms" ms)

let stats t =
  match request t Protocol.Stats with
  | Protocol.Stats_json j -> Ok j
  | Protocol.Error_msg e -> Error e
  | _ -> Error "unexpected response type to stats"

let ping t =
  match request t Protocol.Ping with Protocol.Pong -> true | _ -> false

let shutdown t =
  match request t Protocol.Shutdown with Protocol.Bye -> true | _ -> false

(* One fresh connection per attempt: a connection that saw a timeout or a
   torn frame is in an unknown state and is never reused.  [Busy] answers
   honor the daemon's retry hint in full — [max_s] caps only the client's
   own backoff, never the hint, which arrives identically whether the shed
   came from the daemon or was relayed verbatim by a router (the router
   never synthesizes a replacement hint for a shard's shed).  A hard 30 s
   ceiling bounds a hostile or broken hint.  Transport failures back off on
   the qid-seeded deterministic schedule.  A daemon [Error_msg] is a real
   answer about this request (damaged matrix, bad path) — retrying cannot
   fix it, so it returns immediately. *)
let query_with_retry ?(attempts = 3) ?(base_s = 0.05) ?(max_s = 1.0)
    ?(connect_timeout_s = 5.0) ?timeout_s ?(measure = true) ?(deadline_ms = 0)
    ?kernel ?(qid = "q") ~socket source =
  let seed = Hashtbl.hash qid in
  let attempts = max 1 attempts in
  let rec go attempt =
    let outcome =
      match connect ~timeout_s:connect_timeout_s socket with
      | exception e -> `Transport (Printexc.to_string e)
      | c -> (
          Fun.protect
            ~finally:(fun () -> close c)
            (fun () ->
              match
                request ?timeout_s c
                  (Protocol.Query
                     { Protocol.qid; source; measure; deadline_ms; kernel })
              with
              | resp -> query_outcome resp
              | exception Failure msg -> `Transport msg
              | exception Unix.Unix_error (err, fn, _) ->
                  `Transport (fn ^ ": " ^ Unix.error_message err)))
    in
    match outcome with
    | `Done r -> r
    | `Busy hint_ms when attempt < attempts ->
        let backoff =
          Robust.backoff_delay ~base_s ~max_s ~seed ~attempt ()
        in
        let hint_s = Float.min 30.0 (float_of_int hint_ms /. 1000.0) in
        Unix.sleepf (Float.max backoff hint_s);
        go (attempt + 1)
    | `Busy hint_ms ->
        Error
          (Printf.sprintf "%s: still busy after %d attempt(s) (retry hint %d ms)"
             qid attempts hint_ms)
    | `Transport _ when attempt < attempts ->
        Unix.sleepf (Robust.backoff_delay ~base_s ~max_s ~seed ~attempt ());
        go (attempt + 1)
    | `Transport msg ->
        Error (Printf.sprintf "%s: gave up after %d attempt(s): %s" qid attempts msg)
  in
  go 1
