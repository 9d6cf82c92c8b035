(* The load generator: one process, one thread, a few connections with a
   pipelined window each.  Every frame was encoded during set-up; the
   closed loop sends the next frame on a connection as soon as one of its
   answers returns, until the timed window closes or the stream ends, then
   drains what is in flight. *)

type outcome = Answer of Serve.Protocol.answer | Failed of string

type sample = {
  qi : int;  (** which frame *)
  sent : float;
  done_ : float;
  outcome : outcome;
}

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : string;
  inflight : (int * float) Queue.t;
  mutable dead : bool;
}

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let outcome_of ~msg body =
  match Serve.Protocol.response_of_frame ~msg body with
  | Ok (Serve.Protocol.Answer a) when a.Serve.Protocol.degraded ->
      Failed
        ("degraded: "
        ^ Option.value ~default:"" a.Serve.Protocol.degraded_reason)
  | Ok (Serve.Protocol.Answer a) -> Answer a
  | Ok (Serve.Protocol.Busy _) -> Failed "busy"
  | Ok (Serve.Protocol.Error_msg e) -> Failed ("error: " ^ e)
  | Ok _ -> Failed "unexpected response"
  | Error e -> Failed ("undecodable response: " ^ e)

(* [next ()] names the next frame to send, [None] once the stream is
   exhausted.  Returns every sample and the window's length. *)
let recv_timeout_s = 60.0

let run ?(conns = 2) ?(window = 4) ~endpoint ~frames
    ~next ~seconds () =
  let cs =
    Array.init conns (fun _ ->
        let fd = Serve.Addr.connect (Serve.Addr.of_string endpoint) in
        Unix.clear_nonblock fd;
        { fd; rbuf = ""; inflight = Queue.create (); dead = false })
  in
  let samples = ref [] in
  let finish qi sent outcome =
    let t = Util.now () in
    Trace.record ~qid:(string_of_int qi) "client.query" sent t;
    samples := { qi; sent; done_ = t; outcome } :: !samples
  in
  let kill c reason =
    c.dead <- true;
    Queue.iter (fun (qi, sent) -> finish qi sent (Failed reason)) c.inflight;
    Queue.clear c.inflight
  in
  let t0 = Util.now () in
  let sending = ref true in
  let last_progress = ref t0 in
  let buf = Bytes.create 65536 in
  let busy () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) cs in
  while !sending || busy () do
    if !sending && Util.now () -. t0 >= seconds then sending := false;
    Array.iter
      (fun c ->
        while !sending && (not c.dead) && Queue.length c.inflight < window do
          match next () with
          | None -> sending := false
          | Some qi -> (
              let sent = Util.now () in
              Queue.push (qi, sent) c.inflight;
              try write_all c.fd frames.(qi) 0
              with Unix.Unix_error (e, _, _) ->
                kill c ("send: " ^ Unix.error_message e))
        done)
      cs;
    let waiting =
      Array.to_list cs
      |> List.filter (fun c -> (not c.dead) && not (Queue.is_empty c.inflight))
    in
    let fds = List.map (fun c -> c.fd) waiting in
    let readable, _, _ =
      try Unix.select fds [] [] 0.5
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.memq c.fd readable then
          match Unix.read c.fd buf 0 (Bytes.length buf) with
          | 0 -> kill c "connection closed"
          | n ->
              last_progress := Util.now ();
              c.rbuf <- c.rbuf ^ Bytes.sub_string buf 0 n;
              let continue = ref true in
              while !continue do
                match Serve.Protocol.decode_frame c.rbuf with
                | `Frame (msg, body, used) ->
                    c.rbuf <-
                      String.sub c.rbuf used (String.length c.rbuf - used);
                    let qi, sent = Queue.pop c.inflight in
                    finish qi sent (outcome_of ~msg body)
                | `Need _ -> continue := false
                | `Bad e ->
                    kill c ("bad framing: " ^ e);
                    continue := false
              done
          | exception Unix.Unix_error (e, _, _) ->
              kill c ("recv: " ^ Unix.error_message e))
      waiting;
    if waiting <> [] && Util.now () -. !last_progress > recv_timeout_s then
      List.iter (fun c -> kill c "receive timeout") waiting
  done;
  let elapsed = Util.now () -. t0 in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  (Array.of_list (List.rev !samples), elapsed)

(* One request at a time on one connection: the latency of a single
   query with nothing else in flight. *)
let connect endpoint =
  let fd = Serve.Addr.connect (Serve.Addr.of_string endpoint) in
  Unix.clear_nonblock fd;
  fd

let ask fd frame =
  let t0 = Util.now () in
  write_all fd frame 0;
  let buf = Bytes.create 65536 in
  let rec go acc =
    match Serve.Protocol.decode_frame acc with
    | `Frame (msg, body, _) -> outcome_of ~msg body
    | `Bad e -> Failed e
    | `Need _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Failed "connection closed"
        | n -> go (acc ^ Bytes.sub_string buf 0 n))
  in
  let o = go "" in
  (o, Util.now () -. t0)
