(* Scale-out serving tests: the consistent-hash ring's balance and minimal-
   remap properties (QCheck over generated fp1 fingerprints), the TCP
   transport end to end (tcp:127.0.0.1:0 with kernel-port readback), and the
   router daemon itself — verbatim relay with per-client FIFO across shards,
   aggregated stats fan-out, Busy-hint propagation through query_with_retry,
   router/shard lifecycle independence, and a SIGKILLed shard mid-load:
   in-flight predict-only queries fail over to the surviving shard, in-flight
   measured queries answer an honest error, and a restarted shard rejoins the
   ring warm from its persisted cache. *)

open Sptensor
open Schedule
open Machine_model

let algo = Algorithm.Spmm 256
let machine = Machine.intel_like

(* --- tmp-dir helpers (same idiom as test_serve) ----------------------- *)

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Robust.mkdir_p d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* --- shared fixture: identical seeds to test_serve, so shard trampolines
   rebuild the same model/index identity stamps in every process ---------- *)

let fixture =
  lazy
    (let model = Waco.Costmodel.create (Rng.create 11) algo in
     let rng = Rng.create 3 in
     let corpus =
       Array.init 64 (fun _ -> Space.sample rng algo ~dims:[| 48; 48 |])
     in
     let index = Waco.Tuner.build_index (Rng.create 7) model corpus in
     (model, index))

let small_matrix seed = Gen.uniform (Rng.create seed) ~nrows:48 ~ncols:48 ~nnz:220

let mk_server ?pool ?cache_capacity ?cache_file ?max_pending
    ?(socket = "unused.sock") () =
  let model, index = Lazy.force fixture in
  Serve.Server.create ?pool ?cache_capacity ?cache_file ?max_pending ~k:4
    ~ef:16 ~model ~index ~index_file:"<fixture>" ~machine ~socket ()

(* Shard trampoline: OCaml 5 forbids [Unix.fork] once any domain has been
   spawned (the in-process router below spawns one), so SIGKILL-able shard
   daemons are fresh processes of this executable, selected by env var
   before Alcotest takes over.  WACO_TEST_ROUTER_STALL="SECONDS:N" arms the
   stuck-measurement fault in the shard, pinning measured queries in flight
   so the kill lands mid-measurement deterministically. *)
let () =
  match Sys.getenv_opt "WACO_TEST_ROUTER_SHARD" with
  | None -> ()
  | Some socket ->
      (try
         let cache_file = Sys.getenv_opt "WACO_TEST_ROUTER_CACHE" in
         (match Sys.getenv_opt "WACO_TEST_ROUTER_STALL" with
         | Some spec -> (
             match String.split_on_char ':' spec with
             | [ secs; n ] ->
                 Robust.Faults.arm_stuck_measures ~seconds:(float_of_string secs)
                   (int_of_string n)
             | _ -> failwith "bad WACO_TEST_ROUTER_STALL")
         | None -> ());
         let server = mk_server ?cache_file ~socket () in
         Serve.Server.run server
       with _ -> exit 1);
      exit 0

let inline_source m =
  let entries =
    Array.init (Coo.nnz m) (fun k ->
        (m.Coo.rows.(k), m.Coo.cols.(k), m.Coo.vals.(k)))
  in
  Serve.Protocol.Inline { nrows = m.Coo.nrows; ncols = m.Coo.ncols; entries }

let query_of ?(measure = true) ?(qid = "q") ?(deadline_ms = 0) ?kernel m =
  { Serve.Protocol.qid; source = inline_source m; measure; deadline_ms; kernel }

let json_has json fragment =
  let n = String.length json and m = String.length fragment in
  let rec go i = i + m <= n && (String.sub json i m = fragment || go (i + 1)) in
  go 0

(* ====================================================================== *)
(* Ring properties                                                        *)
(* ====================================================================== *)

let shard_names =
  [
    "unix:/srv/waco/shard0.sock";
    "unix:/srv/waco/shard1.sock";
    "unix:/srv/waco/shard2.sock";
    "unix:/srv/waco/shard3.sock";
  ]

(* A generated fp1 fingerprint key: random density sketch, plausible shape.
   Exactly the population the router hashes — [Ring.routing_key] strips it
   back to the sketch hex. *)
let fp_key rng =
  let cells = Serve.Fingerprint.cells * Serve.Fingerprint.cells in
  let sketch = Array.init cells (fun _ -> Rng.int rng 256) in
  Serve.Fingerprint.key
    {
      Serve.Fingerprint.nrows = 16 + Rng.int rng 4096;
      ncols = 16 + Rng.int rng 4096;
      nnz = 1 + Rng.int rng 100000;
      sketch;
    }

(* Generated fingerprints spread across 4 shards within +-25% of even. *)
let qcheck_ring_balance =
  QCheck.Test.make ~name:"ring balance within 25% of even (prop)" ~count:16
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1) in
      let ring = Serve.Router.Ring.create shard_names in
      let nkeys = 1024 in
      let counts = Hashtbl.create 4 in
      for _ = 1 to nkeys do
        let owner =
          Serve.Router.Ring.lookup ring
            (Serve.Router.Ring.routing_key (fp_key rng))
        in
        Hashtbl.replace counts owner
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner))
      done;
      let mean = float_of_int nkeys /. float_of_int (List.length shard_names) in
      List.for_all
        (fun name ->
          let c = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
          c >= 0.75 *. mean && c <= 1.25 *. mean)
        shard_names)

(* Removing one member remaps only the keys it owned; everyone else's keys
   keep their owner.  (Read in reverse, the same check covers a join: the
   new member only steals keys, never reshuffles third parties.) *)
let qcheck_ring_minimal_remap =
  QCheck.Test.make ~name:"membership change remaps only departed keys (prop)"
    ~count:16
    QCheck.(pair small_nat (int_range 0 3))
    (fun (seed, departed) ->
      let rng = Rng.create (seed + 101) in
      let full = Serve.Router.Ring.create shard_names in
      let dname = List.nth shard_names departed in
      let survivors = List.filter (fun n -> n <> dname) shard_names in
      let reduced = Serve.Router.Ring.create survivors in
      let ok = ref true in
      for _ = 1 to 256 do
        let key = Serve.Router.Ring.routing_key (fp_key rng) in
        let before = Serve.Router.Ring.lookup full key in
        let after = Serve.Router.Ring.lookup reduced key in
        if before = dname then begin
          (* Departed keys must land on some survivor. *)
          if not (List.mem after survivors) then ok := false
        end
        else if after <> before then ok := false
      done;
      !ok)

let test_routing_key () =
  let m = small_matrix 5 in
  let key = Serve.Fingerprint.key (Serve.Fingerprint.of_coo m) in
  let rk = Serve.Router.Ring.routing_key key in
  (* The routing key is the sketch hex: the part after the last colon. *)
  let last = String.rindex key ':' in
  Alcotest.(check string) "fp1 key routes by sketch hex"
    (String.sub key (last + 1) (String.length key - last - 1))
    rk;
  Alcotest.(check bool) "sketch hex is non-empty" true (String.length rk > 0);
  (* Shape and nnz are invisible to routing: same sketch, different shape
     and count route identically. *)
  let fp = Serve.Fingerprint.of_coo m in
  let fp' = { fp with Serve.Fingerprint.nrows = fp.nrows * 2; nnz = fp.nnz + 7 } in
  Alcotest.(check string) "routing sees only the density layout" rk
    (Serve.Router.Ring.routing_key (Serve.Fingerprint.key fp'));
  (* Anything that isn't an fp1 key routes as itself. *)
  Alcotest.(check string) "non-fp key routes as itself" "ping"
    (Serve.Router.Ring.routing_key "ping")

let test_ring_validation () =
  (match Serve.Router.Ring.create [] with
  | _ -> Alcotest.fail "empty ring accepted"
  | exception Invalid_argument _ -> ());
  let ring = Serve.Router.Ring.create shard_names in
  Alcotest.(check (list string)) "members preserved" shard_names
    (Serve.Router.Ring.members ring);
  (* Deterministic: the same key always lands on the same member. *)
  let k = Serve.Router.Ring.routing_key (fp_key (Rng.create 9)) in
  Alcotest.(check string) "lookup is deterministic"
    (Serve.Router.Ring.lookup ring k)
    (Serve.Router.Ring.lookup ring k)

(* ====================================================================== *)
(* Addr specs + the TCP transport end to end                              *)
(* ====================================================================== *)

let test_addr_specs () =
  List.iter
    (fun (spec, expect) ->
      Alcotest.(check string) spec expect
        (Serve.Addr.to_string (Serve.Addr.of_string spec)))
    [
      ("/tmp/waco.sock", "/tmp/waco.sock");
      ("unix:/tmp/waco.sock", "/tmp/waco.sock");
      ("tcp:127.0.0.1:7070", "tcp:127.0.0.1:7070");
      ("tcp:localhost:0", "tcp:localhost:0");
    ];
  List.iter
    (fun bad ->
      match Serve.Addr.of_string bad with
      | _ -> Alcotest.failf "bad spec accepted: %s" bad
      | exception Invalid_argument _ -> ())
    [ "tcp:127.0.0.1"; "tcp:127.0.0.1:notaport"; "tcp:127.0.0.1:-1"; "tcp::"; "" ]

(* An in-process daemon listening on tcp:127.0.0.1:0: the kernel picks the
   port, [bound_endpoint] reports it, and the whole PR-5 contract (batch,
   cache hit on re-ask, stats, clean shutdown) holds over TCP exactly as
   over a Unix socket. *)
let test_tcp_end_to_end () =
  let dir = tmpdir "waco-router-tcp" in
  let server = mk_server ~cache_file:(Filename.concat dir "c.waco")
      ~socket:"tcp:127.0.0.1:0" () in
  let daemon = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Domain.join daemon;
      rm_rf dir)
    (fun () ->
      let rec wait_bound n =
        match Serve.Server.bound_endpoint server with
        | Some ep -> ep
        | None when n > 0 ->
            Unix.sleepf 0.05;
            wait_bound (n - 1)
        | None -> Alcotest.fail "daemon never bound its TCP endpoint"
      in
      let ep = wait_bound 200 in
      Alcotest.(check bool) "bound endpoint resolved the port" true
        (String.length ep > String.length "tcp:127.0.0.1:"
        && String.sub ep 0 14 = "tcp:127.0.0.1:"
        && not (json_has ep ":0"));
      let c = Serve.Client.connect ep in
      Alcotest.(check bool) "ping over tcp" true (Serve.Client.ping c);
      let m = small_matrix 21 in
      let sched =
        match Serve.Client.query ~qid:"t1" c (inline_source m) with
        | Ok a ->
            Alcotest.(check bool) "first answer is fresh" false
              a.Serve.Protocol.cache_hit;
            a.Serve.Protocol.schedule
        | Error e -> Alcotest.failf "tcp query: %s" e
      in
      Alcotest.(check bool) "schedule is non-empty" true (String.length sched > 0);
      (match Serve.Client.query ~qid:"t2" c (inline_source m) with
      | Ok a ->
          Alcotest.(check bool) "re-ask hits the cache over tcp" true
            a.Serve.Protocol.cache_hit;
          Alcotest.(check string) "schedule unchanged" sched
            a.Serve.Protocol.schedule
      | Error e -> Alcotest.failf "tcp re-ask: %s" e);
      (match Serve.Client.stats c with
      | Ok j ->
          Alcotest.(check bool) "stats report the tcp listen endpoint" true
            (json_has j ep)
      | Error e -> Alcotest.failf "stats: %s" e);
      Alcotest.(check bool) "clean shutdown over tcp" true
        (Serve.Client.shutdown c);
      Serve.Client.close c)

(* ====================================================================== *)
(* Router end to end                                                      *)
(* ====================================================================== *)

let wait_connect ?(attempts = 200) path =
  let rec go attempts =
    match Serve.Client.connect path with
    | c -> c
    | exception (Unix.Unix_error _ | Failure _) when attempts > 0 ->
        Unix.sleepf 0.05;
        go (attempts - 1)
  in
  go attempts

let spawn_shard ?stall ~socket ~cache_file () =
  let extra =
    [|
      "WACO_TEST_ROUTER_SHARD=" ^ socket; "WACO_TEST_ROUTER_CACHE=" ^ cache_file;
    |]
  in
  let extra =
    match stall with
    | Some (seconds, n) ->
        Array.append extra
          [| Printf.sprintf "WACO_TEST_ROUTER_STALL=%g:%d" seconds n |]
    | None -> extra
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    (Array.append (Unix.environment ()) extra)
    Unix.stdin Unix.stdout Unix.stderr

let kill_quietly pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Spin up a router in its own domain and wait for its endpoint. *)
let spawn_router ?max_pending ?failover_hops ~listen ~shards () =
  let router = Serve.Router.create ?max_pending ?failover_hops ~listen ~shards () in
  let domain = Domain.spawn (fun () -> Serve.Router.run router) in
  let rec wait_bound n =
    match Serve.Router.bound_endpoint router with
    | Some ep -> ep
    | None when n > 0 ->
        Unix.sleepf 0.05;
        wait_bound (n - 1)
    | None -> Alcotest.fail "router never bound its endpoint"
  in
  (router, domain, wait_bound 200)

(* Narrow an aggregated stats JSON to the text after [from], so counter
   names that repeat per section (router / per_shard / totals) can be read
   out of the intended one. *)
let counter_after json from name =
  let n = String.length json and m = String.length from in
  let rec find i =
    if i + m > n then None
    else if String.sub json i m = from then
      Serve.Metrics.json_counter (String.sub json i (n - i)) name
    else find (i + 1)
  in
  find 0

let router_stats c =
  match Serve.Client.stats c with
  | Ok j -> j
  | Error e -> Alcotest.failf "router stats: %s" e

(* The router accepts clients as soon as it binds, while its shard dials
   are still in flight — a query racing the dials would route over a
   partial ring.  Tests wait until every shard is admitted. *)
let wait_shards_up ?(attempts = 200) c n =
  let rec go attempts =
    let j = router_stats c in
    if counter_after j "\"router\"" "shards_up" = Some n then ()
    else if attempts = 0 then
      Alcotest.failf "router never saw %d shards up" n
    else begin
      Unix.sleepf 0.05;
      go (attempts - 1)
    end
  in
  go attempts

(* Two subprocess shards behind an in-process router on a TCP listen:
   pipelined queries keep per-client FIFO order across shards, re-asks hit
   the owning shard's cache, stats aggregate per-shard and total counters,
   and shutting the router down leaves the shards alive. *)
let test_router_end_to_end () =
  let dir = tmpdir "waco-router-e2e" in
  let s0 = Filename.concat dir "s0.sock" and s1 = Filename.concat dir "s1.sock" in
  let pid0 = spawn_shard ~socket:s0 ~cache_file:(Filename.concat dir "c0.waco") () in
  let pid1 = spawn_shard ~socket:s1 ~cache_file:(Filename.concat dir "c1.waco") () in
  Fun.protect
    ~finally:(fun () ->
      kill_quietly pid0;
      kill_quietly pid1;
      rm_rf dir)
    (fun () ->
      (* Don't start routing until both shards accept connections. *)
      List.iter
        (fun s ->
          let probe = wait_connect s in
          ignore (Serve.Client.ping probe);
          Serve.Client.close probe)
        [ s0; s1 ];
      let _router, domain, ep =
        spawn_router ~listen:"tcp:127.0.0.1:0" ~shards:[ s0; s1 ] ()
      in
      let c = wait_connect ep in
      Alcotest.(check bool) "ping answers locally at the router" true
        (Serve.Client.ping c);
      wait_shards_up c 2;
      (* Pipeline A,B on one connection: distinct matrices may route to
         different shards, yet responses come back in request order.  A
         drained second round must then hit the owning shards' caches, and
         the predicted costs tie each answer to its query. *)
      let ma = small_matrix 41 and mb = small_matrix 42 in
      let round tag =
        List.iteri
          (fun i m ->
            Serve.Client.send c
              (Serve.Protocol.Query
                 (query_of ~qid:(Printf.sprintf "%s%d" tag i) m)))
          [ ma; mb ];
        List.init 2 (fun _ ->
            match Serve.Client.recv ~timeout_s:60.0 c with
            | Serve.Protocol.Answer a -> a
            | Serve.Protocol.Error_msg e -> Alcotest.failf "routed query: %s" e
            | _ -> Alcotest.fail "non-answer via router")
      in
      (match (round "f", round "g") with
      | [ a1; b1 ], [ a2; b2 ] ->
          Alcotest.(check bool) "fifo: first round is fresh" false
            (a1.Serve.Protocol.cache_hit || b1.Serve.Protocol.cache_hit);
          Alcotest.(check bool) "fifo: second round hits the shard caches"
            true
            (a2.Serve.Protocol.cache_hit && b2.Serve.Protocol.cache_hit);
          Alcotest.(check (float 1e-9)) "fifo: A's answers line up"
            a1.Serve.Protocol.predicted a2.Serve.Protocol.predicted;
          Alcotest.(check (float 1e-9)) "fifo: B's answers line up"
            b1.Serve.Protocol.predicted b2.Serve.Protocol.predicted;
          Alcotest.(check string) "fifo: A's schedule is stable"
            a1.Serve.Protocol.schedule a2.Serve.Protocol.schedule
      | _ -> assert false);
      (* Aggregated stats: router section, one entry per shard, totals
         summed across shards. *)
      let j = router_stats c in
      Alcotest.(check bool) "stats has router/per_shard/totals sections" true
        (json_has j "\"router\"" && json_has j "\"per_shard\""
        && json_has j "\"totals\"");
      Alcotest.(check (option int)) "both shards are up" (Some 2)
        (counter_after j "\"router\"" "shards_up");
      (match counter_after j "\"router\"" "routed" with
      | Some r -> Alcotest.(check int) "all four queries were routed" 4 r
      | None -> Alcotest.fail "no routed counter");
      (match counter_after j "\"totals\"" "cache_hits" with
      | Some h -> Alcotest.(check bool) "totals sum shard cache hits" true (h >= 2)
      | None -> Alcotest.fail "no totals cache_hits");
      Alcotest.(check bool) "per-shard stats carry each shard's name" true
        (json_has j s0 && json_has j s1);
      (* Router shutdown is the router's own lifecycle: the shards stay up
         and keep answering direct clients. *)
      Alcotest.(check bool) "router shuts down cleanly" true
        (Serve.Client.shutdown c);
      Serve.Client.close c;
      Domain.join domain;
      (* The shard owning A (mirroring the router's hash) must still hold
         A's answer — routed traffic landed in that shard's own cache. *)
      let ring = Serve.Router.Ring.create [ s0; s1 ] in
      let owner_a =
        Serve.Router.Ring.lookup ring
          (Serve.Router.Ring.routing_key
             (Serve.Fingerprint.key (Serve.Fingerprint.of_coo ma)))
      in
      let direct = wait_connect owner_a in
      Alcotest.(check bool) "shard survives its router" true
        (Serve.Client.ping direct);
      (match Serve.Client.query ~qid:"direct" direct (inline_source ma) with
      | Ok a ->
          Alcotest.(check bool) "shard cache warm from routed traffic" true
            a.Serve.Protocol.cache_hit
      | Error e -> Alcotest.failf "direct query after router exit: %s" e);
      ignore (Serve.Client.shutdown direct);
      Serve.Client.close direct;
      let other = if owner_a = s0 then s1 else s0 in
      let direct1 = wait_connect other in
      ignore (Serve.Client.shutdown direct1);
      Serve.Client.close direct1;
      ignore (Unix.waitpid [] pid0);
      ignore (Unix.waitpid [] pid1))

(* A shard's [Busy] shed is relayed verbatim — the router counts the relay
   but never synthesizes its own hint — and [query_with_retry] pointed at
   the router honors the shard's retry_after_ms exactly as it would
   directly. *)
let test_busy_propagation () =
  let dir = tmpdir "waco-router-busy" in
  let shard_sock = Filename.concat dir "shard.sock" in
  let server = mk_server ~max_pending:1 ~socket:shard_sock () in
  let sdomain = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Robust.Faults.reset ();
      Domain.join sdomain;
      rm_rf dir)
    (fun () ->
      let probe = wait_connect shard_sock in
      ignore (Serve.Client.ping probe);
      Serve.Client.close probe;
      let router, rdomain, ep =
        spawn_router ~listen:(Filename.concat dir "router.sock")
          ~shards:[ shard_sock ] ()
      in
      let m = small_matrix 61 in
      (* Stall the only uncached computation, then pipeline a burst through
         the router against the shard's full queue. *)
      let c = wait_connect ep in
      wait_shards_up c 1;
      Robust.Faults.arm_stuck_measures ~seconds:0.4 1;
      Serve.Client.send c (Serve.Protocol.Query (query_of ~qid:"b0" m));
      Unix.sleepf 0.1;
      for i = 1 to 5 do
        Serve.Client.send c
          (Serve.Protocol.Query (query_of ~qid:(Printf.sprintf "b%d" i) m))
      done;
      let answers = ref 0 and busy = ref 0 in
      for _ = 0 to 5 do
        match Serve.Client.recv ~timeout_s:30.0 c with
        | Serve.Protocol.Answer _ -> incr answers
        | Serve.Protocol.Busy { retry_after_ms } ->
            Alcotest.(check bool) "relayed busy carries a positive hint" true
              (retry_after_ms > 0);
            incr busy
        | Serve.Protocol.Error_msg e -> Alcotest.failf "unexpected error: %s" e
        | _ -> Alcotest.fail "unexpected response via router under overload"
      done;
      Robust.Faults.reset ();
      Alcotest.(check int) "every burst request resolved" 6 (!answers + !busy);
      Alcotest.(check bool) "at least one shed relayed" true (!busy >= 1);
      (* The sheds were the shard's, relayed — not router-synthesized. *)
      let rj = Serve.Router.stats_json router in
      Alcotest.(check (option int)) "router counted the relayed sheds"
        (Some !busy)
        (Serve.Metrics.json_counter rj "relayed_busy");
      Alcotest.(check (option int)) "router shed nothing itself" (Some 0)
        (Serve.Metrics.json_counter rj "shed");
      (* The resilient client through the router: backs off on the relayed
         hint, then answers from the shard's (by now warm) cache. *)
      (match
         Serve.Client.query_with_retry ~attempts:5 ~base_s:0.02 ~qid:"retry"
           ~socket:ep (inline_source m)
       with
      | Ok a ->
          Alcotest.(check bool) "retry through the router lands in cache" true
            a.Serve.Protocol.cache_hit
      | Error e -> Alcotest.failf "retry through router: %s" e);
      Serve.Client.close c;
      let stop = wait_connect ep in
      Alcotest.(check bool) "router shutdown" true (Serve.Client.shutdown stop);
      Serve.Client.close stop;
      Domain.join rdomain;
      let sd = wait_connect shard_sock in
      ignore (Serve.Client.shutdown sd);
      Serve.Client.close sd)

(* The chaos clause: SIGKILL one of two subprocess shards while it holds
   in-flight queries.  Predict-only queries fail over to the survivor and
   every one is answered; the in-flight measured query gets an honest
   error (it may have half-run, so re-running it silently elsewhere would
   lie); a restarted shard is redialed and rejoins the ring warm from its
   write-through cache. *)
let test_shard_sigkill_failover () =
  let dir = tmpdir "waco-router-kill" in
  let s0 = Filename.concat dir "s0.sock" and s1 = Filename.concat dir "s1.sock" in
  let c0 = Filename.concat dir "c0.waco" and c1 = Filename.concat dir "c1.waco" in
  let pid0 = spawn_shard ~socket:s0 ~cache_file:c0 () in
  (* Shard 1's measured queries stall for 30 s: whatever measured work is
     in flight there is still in flight when the SIGKILL lands. *)
  let pid1 = ref (spawn_shard ~stall:(30.0, 1000) ~socket:s1 ~cache_file:c1 ()) in
  Fun.protect
    ~finally:(fun () ->
      kill_quietly pid0;
      kill_quietly !pid1;
      rm_rf dir)
    (fun () ->
      List.iter
        (fun s ->
          let probe = wait_connect s in
          ignore (Serve.Client.ping probe);
          Serve.Client.close probe)
        [ s0; s1 ];
      let _router, rdomain, ep =
        spawn_router ~failover_hops:1 ~listen:(Filename.concat dir "router.sock")
          ~shards:[ s0; s1 ] ()
      in
      (* Pick matrices by ring owner, mirroring the router's own hash. *)
      let ring = Serve.Router.Ring.create [ s0; s1 ] in
      let owner m =
        Serve.Router.Ring.lookup ring
          (Serve.Router.Ring.routing_key
             (Serve.Fingerprint.key (Serve.Fingerprint.of_coo m)))
      in
      let owned_by shard seed0 =
        let rec go seed =
          let m = small_matrix seed in
          if owner m = shard then m else go (seed + 1)
        in
        go seed0
      in
      let warm1 = owned_by s1 300 in
      let stuck1 = owned_by s1 400 in
      let c = wait_connect ep in
      wait_shards_up c 2;
      (* Warm shard 1's cache through the router (predict-only: the stall
         only bites measured ticks) — write-through persists it. *)
      (match Serve.Client.query ~measure:false ~qid:"warm" c (inline_source warm1) with
      | Ok a ->
          Alcotest.(check bool) "warm-up answered fresh" false
            a.Serve.Protocol.cache_hit
      | Error e -> Alcotest.failf "warm-up via router: %s" e);
      (* In-flight load: one measured query pinned mid-measurement on shard
         1, then a spread of predict-only queries across both shards. *)
      Serve.Client.send c
        (Serve.Protocol.Query (query_of ~measure:true ~qid:"stuck" stuck1));
      let npredict = 4 in
      for i = 0 to npredict - 1 do
        Serve.Client.send c
          (Serve.Protocol.Query
             (query_of ~measure:false ~qid:(Printf.sprintf "p%d" i)
                (small_matrix (500 + i))))
      done;
      (* Let the relays reach the shards, then kill the stalled one. *)
      Unix.sleepf 0.5;
      Unix.kill !pid1 Sys.sigkill;
      ignore (Unix.waitpid [] !pid1);
      (* FIFO: the measured query's honest error first, then every
         predict-only answer — the ones shard 1 held fail over to shard 0
         within the hop budget. *)
      (match Serve.Client.recv ~timeout_s:60.0 c with
      | Serve.Protocol.Error_msg e ->
          Alcotest.(check bool) "measured error names the shard death" true
            (String.length e > 0)
      | Serve.Protocol.Answer _ ->
          Alcotest.fail "measured query silently re-ran after a shard death"
      | _ -> Alcotest.fail "unexpected response for the stuck query");
      for i = 0 to npredict - 1 do
        match Serve.Client.recv ~timeout_s:60.0 c with
        | Serve.Protocol.Answer _ -> ()
        | Serve.Protocol.Error_msg e ->
            Alcotest.failf "predict-only p%d lost to the shard death: %s" i e
        | _ -> Alcotest.failf "unexpected response for p%d" i
      done;
      (* Restart the shard (what `waco serve --supervise` would do) on the
         same socket and cache: the router's redial loop re-admits it. *)
      pid1 := spawn_shard ~socket:s1 ~cache_file:c1 ();
      let rec wait_rejoin n =
        if n = 0 then Alcotest.fail "restarted shard never rejoined the ring";
        let j = router_stats c in
        if counter_after j "\"router\"" "shards_up" <> Some 2 then begin
          Unix.sleepf 0.1;
          wait_rejoin (n - 1)
        end
        else j
      in
      ignore (wait_rejoin 100);
      (* The stats fan-out snapshots its shard set when the request arrives,
         so the response that first shows [shards_up = 2] was composed from
         a fan created before the reconnect — ask once more now that the
         rejoin is visible to get the restarted shard's embedded stats. *)
      let j = router_stats c in
      Alcotest.(check bool) "the death and the reconnect were counted" true
        (match
           ( counter_after j "\"router\"" "shard_deaths",
             counter_after j "\"router\"" "reconnects" )
         with
        | Some d, Some r -> d >= 1 && r >= 1
        | _ -> false);
      (* Warm rejoin: the restarted shard reports a warm cache, and the
         pre-kill answer is served from it as a hit. *)
      Alcotest.(check bool) "restarted shard came up warm" true
        (json_has j "\"cache_status\": \"warm(");
      (match Serve.Client.query ~measure:false ~qid:"rewarm" c (inline_source warm1) with
      | Ok a ->
          Alcotest.(check bool) "pre-kill answer survives on the rejoined shard"
            true a.Serve.Protocol.cache_hit
      | Error e -> Alcotest.failf "re-ask after rejoin: %s" e);
      Alcotest.(check bool) "router shutdown" true (Serve.Client.shutdown c);
      Serve.Client.close c;
      Domain.join rdomain;
      List.iter
        (fun s ->
          let d = wait_connect s in
          ignore (Serve.Client.shutdown d);
          Serve.Client.close d)
        [ s0; s1 ];
      ignore (Unix.waitpid [] pid0);
      ignore (Unix.waitpid [] !pid1))

(* [n] connections opened without a client-side [select] (past fd 1024 the
   test's own select would fail), and closed with an RST so no ephemeral
   port lingers in TIME_WAIT. *)
let open_many ep n =
  let addr = Serve.Addr.of_string ep in
  List.init n (fun _ ->
      let fd = Unix.socket (Serve.Addr.family addr) Unix.SOCK_STREAM 0 in
      Unix.connect fd (Serve.Addr.sockaddr addr);
      fd)

let close_abortive fd =
  (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
   with Unix.Unix_error _ -> ());
  Unix.close fd

(* 1,100 connections at once to a router: it stays up, admits at most
   [Loop.max_conns], refuses and counts the rest, an admitted connection
   still answers, and once they close a fresh connection is served.  Runs
   on TCP under WACO_TEST_TRANSPORT=tcp (the @tcp alias), else on a Unix
   socket. *)
let test_router_connection_cap () =
  let dir = tmpdir "waco-router-cap" in
  let listen =
    if Sys.getenv_opt "WACO_TEST_TRANSPORT" = Some "tcp" then "tcp:127.0.0.1:0"
    else Filename.concat dir "router.sock"
  in
  (* The one shard is down for the whole test: pings answer at the router. *)
  let _router, rdomain, ep =
    spawn_router ~listen ~shards:[ Filename.concat dir "absent.sock" ] ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = wait_connect ep in
         ignore (Serve.Client.shutdown c);
         Serve.Client.close c
       with _ -> ());
      Domain.join rdomain;
      rm_rf dir)
    (fun () ->
      let admitted = wait_connect ep in
      let flood = open_many ep 1100 in
      Alcotest.(check bool) "an admitted connection answers" true
        (Serve.Client.ping admitted);
      let j = router_stats admitted in
      let get name = Option.value ~default:(-1) (counter_after j "\"router\"" name) in
      Alcotest.(check bool) "the excess is refused and counted" true
        (get "refused" >= 1101 - Serve.Loop.max_conns);
      Alcotest.(check bool) "admitted stays within the cap" true
        (get "connections" <= Serve.Loop.max_conns);
      List.iter close_abortive flood;
      Serve.Client.close admitted;
      let rec ping_fresh attempts =
        let ok =
          try
            let c = Serve.Client.connect ~timeout_s:1.0 ep in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                Serve.Client.request ~timeout_s:1.0 c Serve.Protocol.Ping
                = Serve.Protocol.Pong)
          with Failure _ | Unix.Unix_error _ -> false
        in
        ok || (attempts > 0 && (Unix.sleepf 0.05; ping_fresh (attempts - 1)))
      in
      Alcotest.(check bool) "a fresh connection is served" true (ping_fresh 100))

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest qcheck_ring_balance;
          QCheck_alcotest.to_alcotest qcheck_ring_minimal_remap;
          Alcotest.test_case "routing key" `Quick test_routing_key;
          Alcotest.test_case "validation + determinism" `Quick
            test_ring_validation;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "addr specs" `Quick test_addr_specs;
          Alcotest.test_case "daemon end to end over tcp" `Slow
            test_tcp_end_to_end;
        ] );
      ( "router",
        [
          Alcotest.test_case "relay, fifo, stats, lifecycles" `Slow
            test_router_end_to_end;
          Alcotest.test_case "busy hint propagated verbatim" `Slow
            test_busy_propagation;
          Alcotest.test_case "shard sigkill: failover + warm rejoin" `Slow
            test_shard_sigkill_failover;
          Alcotest.test_case "1100 connections: cap, refuse, survive" `Slow
            test_router_connection_cap;
        ] );
    ]
