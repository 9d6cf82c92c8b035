(* The `waco route` daemon: a consistent-hash front tier over N shard
   daemons.

   The shared [Loop] owns all IO, as it does for [Server]: it peels frames
   off client connections and off one persistent link per shard; each
   query's fingerprint routing key picks a shard on the ring; the query's
   frame bytes are relayed {e verbatim} over that shard's link, and the
   shard's response frame is relayed verbatim back.  No re-encoding anywhere on the data path: what a
   shard answers — an [Answer], an [Error], a [Busy] with its
   [retry_after_ms] hint — is byte-for-byte what the client receives, so
   every client-side contract (retry hints, degraded markers, span fields)
   holds through the router by construction.

   FIFO per client connection is preserved the way the shards preserve it
   per connection: each client request occupies a slot in its connection's
   response queue, shard responses fill slots as they arrive (shards answer
   their own connection in FIFO order, so responses pair with the oldest
   unanswered relay on that shard link), and a slot is written out only
   when it reaches the head — a fast shard's answer waits behind a slow
   one's for the same client, never reorders past it.

   Shard death is a routing event, not an error avalanche: the link drops,
   the shard leaves the ring (remapping only its own arcs — consistent
   hashing's point), and its in-flight queries settle per the failover
   rule: predict-only queries are re-relayed to their new ring owner
   (bounded by [failover_hops]); measured ones answer an honest [error],
   because a half-run measurement re-run elsewhere would silently double
   simulator spend and hide the loss.  The dead shard is redialed with
   capped backoff and rejoins the ring warm from its own persistent cache.

   Clocks: [Robust.mono_now] only, like every deadline/elapsed path in the
   serve layer (DESIGN.md §12; lint-enforced for all of lib/serve). *)

(* --- the ring ---------------------------------------------------------- *)

module Ring = struct
  type t = { points : (int * int) array; names : string array }
  (* [points] is (hash of "name#v", member index), sorted by hash. *)

  let vnodes = 64

  (* 64-bit FNV-1a with an avalanche finalizer, folded to a non-negative
     OCaml int.  Bare FNV-1a is a poor ring hash: two inputs differing
     only near the end (vnode suffixes [#0]..[#63]; two sketches that
     disagree in a few trailing cells) hash to values a small multiple of
     the FNV prime apart, so their ring points cluster instead of
     spreading.  The splitmix64 finalizer diffuses every input bit across
     the word; the fold to 62 bits only drops sign. *)
  let fnv1a s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      s;
    let m = !h in
    let m = Int64.logxor m (Int64.shift_right_logical m 30) in
    let m = Int64.mul m 0xbf58476d1ce4e5b9L in
    let m = Int64.logxor m (Int64.shift_right_logical m 27) in
    let m = Int64.mul m 0x94d049bb133111ebL in
    let m = Int64.logxor m (Int64.shift_right_logical m 31) in
    Int64.to_int (Int64.logand m 0x3fffffffffffffffL)

  let create names =
    if names = [] then invalid_arg "Ring.create: no members";
    let names = Array.of_list names in
    let points =
      Array.init
        (Array.length names * vnodes)
        (fun i ->
          let m = i / vnodes and v = i mod vnodes in
          (fnv1a (Printf.sprintf "%s#%d" names.(m) v), m))
    in
    Array.sort compare points;
    { points; names }

  let members t = Array.to_list t.names

  (* Successor point of the key's hash, wrapping past the top of the ring. *)
  let lookup t key =
    let h = fnv1a key in
    let n = Array.length t.points in
    let lo = ref 0 and hi = ref n in
    (* First index with point hash >= h; [n] when none. *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) >= h then hi := mid else lo := mid + 1
    done;
    let i = if !lo = n then 0 else !lo in
    t.names.(snd t.points.(i))

  let routing_key key =
    if String.length key >= 4 && String.sub key 0 4 = "fp1:" then
      match String.rindex_opt key ':' with
      | Some i -> String.sub key (i + 1) (String.length key - i - 1)
      | None -> key
    else key
end

(* --- state ------------------------------------------------------------- *)

type client = cstate Loop.conn

and cstate = { outq : slot Queue.t  (* this client's response slots, FIFO *) }

(* One request's place in its connection's response order.  [reply] is the
   raw response frame once known; [stop_after] marks the [Bye] whose write
   stops the router. *)
and slot = {
  owner : client;
  mutable reply : string option;
  is_query : bool;  (* counts against [max_pending] until settled *)
  raw : string;  (* the query's original frame bytes, for (re-)relay *)
  skey : string;  (* routing key *)
  measure : bool;
  mutable hops : int;  (* shards this query has been relayed to *)
  stop_after : bool;
}

type shard = {
  name : string;  (* the endpoint spec; also the ring member name *)
  addr : Addr.t;
  mutable link : Loop.link option;  (* [None] = down *)
  inflight : inflight Queue.t;  (* requests relayed, awaiting responses *)
  mutable routed : int;  (* queries ever routed here (balance counter) *)
  mutable attempt : int;  (* consecutive failed dials, for backoff *)
  mutable next_try : float;
}

and inflight = Iquery of slot | Istat of statfan * int

and statfan = {
  fan_slot : slot;
  mutable waiting : int;
  results : (string, string) result option array;  (* per shard index *)
}

type t = {
  listen : string;
  loop : cstate Loop.t;
  shards : shard array;
  mutable ring : Ring.t option;  (* over live shards; [None] = all down *)
  max_pending : int;
  failover_hops : int;
  connect_timeout_s : float;
  reconnect_base_s : float;
  reconnect_max_s : float;
  log : string -> unit;
  mutable outstanding : int;  (* query slots awaiting a settle *)
  (* counters (single-threaded loop: plain ints); the connection-level ones
     live in [Loop.counters] *)
  mutable c_requests : int;
  mutable c_routed : int;
  mutable c_relayed : int;
  mutable c_relayed_busy : int;
  mutable c_failovers : int;
  mutable c_failed_over_errors : int;
  mutable c_shed : int;
  mutable c_no_shard_errors : int;
  mutable c_shard_deaths : int;
  mutable c_reconnects : int;
  mutable c_request_errors : int;
}

let bound_endpoint t = Loop.bound t.loop

let create ?(max_pending = 1024) ?(failover_hops = 1) ?(idle_timeout_s = 60.0)
    ?(frame_timeout_s = 10.0) ?(write_timeout_s = 5.0)
    ?(connect_timeout_s = 2.0) ?(reconnect_base_s = 0.05)
    ?(reconnect_max_s = 2.0) ?(log = ignore) ~listen ~shards () =
  if shards = [] then invalid_arg "Router.create: no shards";
  List.iteri
    (fun i s ->
      if List.exists (( = ) s) (List.filteri (fun j _ -> j < i) shards) then
        invalid_arg ("Router.create: duplicate shard " ^ s))
    shards;
  let shards =
    Array.of_list
      (List.map
         (fun name ->
           { name; addr = Addr.of_string name; link = None;
             inflight = Queue.create (); routed = 0; attempt = 0; next_try = 0.0 })
         shards)
  in
  {
    listen;
    loop =
      Loop.create ~idle_timeout_s ~frame_timeout_s ~write_timeout_s ~log listen;
    shards;
    ring = None;
    max_pending = max 1 max_pending;
    failover_hops = max 0 failover_hops;
    connect_timeout_s;
    reconnect_base_s;
    reconnect_max_s;
    log;
    outstanding = 0;
    c_requests = 0; c_routed = 0; c_relayed = 0; c_relayed_busy = 0;
    c_failovers = 0; c_failed_over_errors = 0; c_shed = 0; c_no_shard_errors = 0;
    c_shard_deaths = 0; c_reconnects = 0; c_request_errors = 0;
  }

let live_count t =
  Array.fold_left
    (fun acc sh -> if sh.link <> None then acc + 1 else acc)
    0 t.shards

let rebuild_ring t =
  let live =
    List.filter_map
      (fun sh -> if sh.link <> None then Some sh.name else None)
      (Array.to_list t.shards)
  in
  t.ring <- (if live = [] then None else Some (Ring.create live))

let stats_json t =
  let ints =
    [
      ("shards", Array.length t.shards);
      ("shards_up", live_count t);
      ("requests", t.c_requests);
      ("routed", t.c_routed);
      ("relayed", t.c_relayed);
      ("relayed_busy", t.c_relayed_busy);
      ("failovers", t.c_failovers);
      ("failover_errors", t.c_failed_over_errors);
      ("shed", t.c_shed);
      ("no_shard_errors", t.c_no_shard_errors);
      ("shard_deaths", t.c_shard_deaths);
      ("reconnects", t.c_reconnects);
      ("request_errors", t.c_request_errors);
    ]
    @ Metrics.io_fields (Loop.counters t.loop)
    @ [
        ("connections", Loop.connections t.loop);
        ("outstanding", t.outstanding);
        ("max_pending", t.max_pending);
        ("failover_hops", t.failover_hops);
        ("protocol_version", Protocol.version);
      ]
  in
  Printf.sprintf "{\"listen\": \"%s\", %s}"
    (Metrics.json_escape (Option.value (Loop.bound t.loop) ~default:t.listen))
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) ints))

(* Aggregate [stats] answer: the router section, one entry per shard (its
   own stats JSON embedded verbatim when it answered), and totals summed
   from the shard counters the capacity story rests on. *)
let compose_stats t (fan : statfan) =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"router\": %s, \"per_shard\": [" (stats_json t);
  Array.iteri
    (fun i sh ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"name\": \"%s\", \"up\": %b, \"routed\": %d"
        (Metrics.json_escape sh.name) (sh.link <> None) sh.routed;
      (match fan.results.(i) with
      | Some (Ok json) -> Printf.bprintf b ", \"stats\": %s" json
      | Some (Error e) ->
          Printf.bprintf b ", \"error\": \"%s\"" (Metrics.json_escape e)
      | None -> ());
      Buffer.add_string b "}")
    t.shards;
  Buffer.add_string b "], \"totals\": {";
  let keys =
    [
      "requests"; "answers"; "cache_hits"; "cache_misses"; "shed";
      "degraded"; "deadline_misses"; "measured_runs";
    ]
  in
  List.iteri
    (fun i key ->
      let total =
        Array.fold_left
          (fun acc r ->
            match r with
            | Some (Ok json) -> (
                match Metrics.json_counter json key with
                | Some n -> acc + n
                | None -> acc)
            | _ -> acc)
          0 fan.results
      in
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: %d" key total)
    keys;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- responses ----------------------------------------------------------- *)

(* Write every settled slot at the head of [conn]'s response queue.  Dead
   connections still drain their queue (drop the frames) so settled slots
   never pile up behind a gone client. *)
let flush_client t conn =
  let outq = (Loop.state conn).outq in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt outq with
    | Some { reply = Some frame; stop_after; _ } ->
        ignore (Queue.pop outq);
        if Loop.alive conn then begin
          Loop.send t.loop conn frame;
          if stop_after then Loop.stop t.loop
        end
    | _ -> continue := false
  done

(* Fill a slot's response exactly once and flush whatever that unblocks. *)
let settle t slot frame =
  if slot.reply = None then begin
    slot.reply <- Some frame;
    if slot.is_query then t.outstanding <- t.outstanding - 1;
    flush_client t slot.owner
  end

let settle_resp t slot resp = settle t slot (Protocol.response_to_frame resp)

(* --- shard links -------------------------------------------------------- *)

let shard_by_name t name =
  Option.get (Array.find_opt (fun sh -> sh.name = name) t.shards)

let retry_hint t = min 2000 (50 * (1 + (t.outstanding / 32)))

(* One more failed dial (or death): the next redial waits out the capped,
   per-shard-seeded backoff. *)
let schedule_redial t sh =
  sh.attempt <- sh.attempt + 1;
  sh.next_try <-
    Robust.mono_now ()
    +. Robust.backoff_delay ~base_s:t.reconnect_base_s ~max_s:t.reconnect_max_s
         ~seed:(Hashtbl.hash sh.name) ~attempt:sh.attempt ()

(* Relay a query slot to the shard owning its key.  On a relay failure the
   shard goes down, which re-settles or re-routes this very slot along with
   the rest of that shard's in-flight queue. *)
let rec forward t slot =
  match t.ring with
  | None ->
      t.c_no_shard_errors <- t.c_no_shard_errors + 1;
      settle_resp t slot (Protocol.Error_msg "router: no shards available")
  | Some ring -> (
      let sh = shard_by_name t (Ring.lookup ring slot.skey) in
      match sh.link with
      | None ->
          (* The ring only holds live shards; a raced-down link settles as
             a death would. *)
          failover t sh slot
      | Some link ->
          slot.hops <- slot.hops + 1;
          Queue.add (Iquery slot) sh.inflight;
          sh.routed <- sh.routed + 1;
          t.c_routed <- t.c_routed + 1;
          Loop.send_link t.loop link slot.raw)

(* The failover rule for one in-flight query on a dead shard: predict-only
   queries hop to their new ring owner while budget remains; measured ones
   (and exhausted budgets) answer honestly. *)
and failover t sh slot =
  if slot.measure then begin
    t.c_failed_over_errors <- t.c_failed_over_errors + 1;
    settle_resp t slot
      (Protocol.Error_msg
         (Printf.sprintf
            "router: shard %s died mid-query; measured query not retried"
            sh.name))
  end
  else if slot.hops > t.failover_hops then begin
    t.c_failed_over_errors <- t.c_failed_over_errors + 1;
    settle_resp t slot
      (Protocol.Error_msg
         (Printf.sprintf "router: gave up after %d shard(s) died" slot.hops))
  end
  else begin
    t.c_failovers <- t.c_failovers + 1;
    forward t slot
  end

(* A shard link died (EOF, reset, stalled write or read, torn frame,
   unsolicited response).  Drop the link, remove the shard from the ring
   (remapping only its arcs), then settle its whole in-flight queue under
   the failover rule — re-relays target the rebuilt ring, so a cascade of
   deaths terminates on the hop budget. *)
and shard_down t sh =
  (match sh.link with
  | Some link ->
      sh.link <- None;
      Loop.drop_link t.loop link
  | None -> ());
  schedule_redial t sh;
  t.c_shard_deaths <- t.c_shard_deaths + 1;
  rebuild_ring t;
  t.log (Printf.sprintf "shard %s down (%d in flight)" sh.name
           (Queue.length sh.inflight));
  let orphans = List.of_seq (Queue.to_seq sh.inflight) in
  Queue.clear sh.inflight;
  List.iter
    (fun item ->
      match item with
      | Iquery slot -> failover t sh slot
      | Istat (fan, i) ->
          fan.results.(i) <- Some (Error "shard down");
          fan.waiting <- fan.waiting - 1;
          if fan.waiting = 0 then
            settle_resp t fan.fan_slot
              (Protocol.Stats_json (compose_stats t fan)))
    orphans

(* Responses off one shard link.  The link is FIFO on both sides, so each
   complete frame pairs with the oldest in-flight relay; the frame goes back
   to the client as the exact bytes the shard sent. *)
let shard_frame t sh msg body =
  match Queue.take_opt sh.inflight with
  | None ->
      (* An unsolicited frame: the link is out of sync; resync by redial. *)
      shard_down t sh
  | Some (Iquery slot) ->
      t.c_relayed <- t.c_relayed + 1;
      if msg = Protocol.msg_busy then t.c_relayed_busy <- t.c_relayed_busy + 1;
      settle t slot (Protocol.encode_frame ~msg body)
  | Some (Istat (fan, i)) ->
      (match Protocol.response_of_frame ~msg body with
      | Ok (Protocol.Stats_json j) -> fan.results.(i) <- Some (Ok j)
      | Ok (Protocol.Error_msg e) -> fan.results.(i) <- Some (Error e)
      | _ -> fan.results.(i) <- Some (Error "unexpected response"));
      fan.waiting <- fan.waiting - 1;
      if fan.waiting = 0 then
        settle_resp t fan.fan_slot (Protocol.Stats_json (compose_stats t fan))

let try_connect t sh =
  match
    Loop.dial t.loop ~timeout_s:t.connect_timeout_s sh.addr
      ~on_frame:(shard_frame t sh) ~on_down:(fun reason ->
        t.log (Printf.sprintf "shard %s: %s" sh.name reason);
        shard_down t sh)
  with
  | link ->
      sh.link <- Some link;
      sh.attempt <- 0;
      rebuild_ring t;
      t.log (Printf.sprintf "shard %s admitted to the ring" sh.name);
      t.c_reconnects <- t.c_reconnects + 1
  | exception _ -> schedule_redial t sh

let reconnect_pass t =
  let now = Robust.mono_now () in
  Array.iter
    (fun sh -> if sh.link = None && now >= sh.next_try then try_connect t sh)
    t.shards

(* --- request handling --------------------------------------------------- *)

let push_slot ?(is_query = false) ?(raw = "") ?(skey = "") ?(measure = false)
    ?(stop_after = false) conn =
  let slot =
    { owner = conn; reply = None; is_query; raw; skey; measure; hops = 0;
      stop_after }
  in
  Queue.add slot (Loop.state conn).outq;
  slot

(* The routing key: the fingerprint's sketch hex for an inline matrix —
   computed with the {e same} [Fingerprint] the shards key their caches
   by, so tests and operators can predict placement from a key — and the
   path string for a path source (the file lives shard-side; reading it
   here would double the IO and put the router in the parse business).  A
   matrix the router cannot fingerprint (the shard will answer the
   authoritative error) routes by its qid — any stable key works for a
   query whose answer is an error. *)
let routing_key_of (q : Protocol.query) =
  match q.Protocol.source with
  | Protocol.Path p -> p
  | Protocol.Inline { nrows; ncols; entries } -> (
      match Sptensor.Coo.of_triplet_array ~nrows ~ncols entries with
      | m -> Ring.routing_key (Fingerprint.key (Fingerprint.of_coo m))
      | exception Invalid_argument _ -> q.Protocol.qid)

let handle_query t conn (q : Protocol.query) raw =
  if t.outstanding >= t.max_pending then begin
    t.c_shed <- t.c_shed + 1;
    let slot = push_slot conn in
    settle_resp t slot (Protocol.Busy { retry_after_ms = retry_hint t })
  end
  else begin
    let slot =
      push_slot ~is_query:true ~raw ~skey:(routing_key_of q)
        ~measure:q.Protocol.measure conn
    in
    t.outstanding <- t.outstanding + 1;
    forward t slot
  end

let handle_stats t conn =
  let slot = push_slot conn in
  let fan =
    { fan_slot = slot; waiting = 0; results = Array.make (Array.length t.shards) None }
  in
  Array.iteri
    (fun i sh ->
      match sh.link with
      | None -> ()
      | Some _ ->
          fan.waiting <- fan.waiting + 1;
          Queue.add (Istat (fan, i)) sh.inflight)
    t.shards;
  if fan.waiting = 0 then
    settle_resp t slot (Protocol.Stats_json (compose_stats t fan))
  else
    (* Relay the stats frame on each live link only after every queue entry
       exists: a send failure mid-iteration tears that shard down, which
       must find the fan entries of the shards already enqueued.  A link
       still up here got its entry above: links only come up at the end of
       a round, never in the middle of this one. *)
    Array.iter
      (fun sh ->
        Option.iter
          (fun link ->
            Loop.send_link t.loop link (Protocol.request_to_frame Protocol.Stats))
          sh.link)
      t.shards

(* One complete client frame.  A query keeps its exact frame bytes for
   relay; control requests answer here. *)
let client_frame t conn msg body =
  match Protocol.request_of_frame ~msg body with
  | Ok req -> (
      t.c_requests <- t.c_requests + 1;
      match req with
      | Protocol.Query q ->
          handle_query t conn q (Protocol.encode_frame ~msg body)
      | Protocol.Ping -> settle_resp t (push_slot conn) Protocol.Pong
      | Protocol.Stats -> handle_stats t conn
      | Protocol.Shutdown ->
          settle_resp t (push_slot ~stop_after:true conn) Protocol.Bye)
  | Error e ->
      t.c_request_errors <- t.c_request_errors + 1;
      settle_resp t (push_slot conn) (Protocol.Error_msg ("request: " ^ e))

(* --- the loop ----------------------------------------------------------- *)

let run ?(on_ready = ignore) t =
  Loop.run t.loop
    ~on_ready:(fun () ->
      Array.iter (try_connect t) t.shards;
      t.log
        (Printf.sprintf "routing on %s over %d shard(s), %d up"
           (Option.get (Loop.bound t.loop))
           (Array.length t.shards) (live_count t));
      on_ready ())
    ~on_round:(fun () -> reconnect_pass t)
    ~init:(fun () -> { outq = Queue.create () })
    ~on_frame:(client_frame t)
