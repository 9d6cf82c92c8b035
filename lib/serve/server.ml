(* The `waco serve` daemon: loads a model + HNSW index once, then answers
   tuning requests over a Unix-domain or TCP socket ([Addr] spec) for as
   long as it lives.

   One thread of control owns all IO: the shared [Loop] accepts
   connections and peels complete frames off each one.  Decoded queries
   land on a FIFO; at the end of every IO round the request scheduler
   drains it in micro-batches:

   - queries are parsed and fingerprinted, then deduplicated per batch —
     N clients asking about the same pattern cost one computation;
   - cache hits are answered immediately;
   - the distinct misses run [Tuner.query] concurrently on the worker pool,
     one forward-only [Costmodel.replicate] per domain (the same replica
     discipline as the index build), so independent requests overlap;
   - fresh non-degraded answers enter the LRU cache, which is persisted
     write-through inside the [Robust] envelope so a restarted daemon is
     warm.

   Degradation over failure, everywhere: a damaged request body answers
   [Error_msg] on its own connection; a failing measurement degrades to the
   fixed-CSR fallback inside [Tuner.tune]; a failing cache persist bumps a
   counter and keeps serving.

   Overload and hostile clients degrade the same way.  Each query's
   [deadline_ms] becomes an absolute instant at frame-decode time and rides
   through the scheduler: an expired query answers from the cache or the
   unmeasured asymptotic fallback (degraded, never cached) instead of
   computing.  Past the pending-queue high-water mark new queries answer
   [Busy] with a retry hint instead of queueing without bound.  Tricklers,
   silent clients and clients that never drain are the [Loop]'s to reap.
   Every such event is a [Metrics] counter. *)

open Machine_model

(* One served kernel: its trained model (replicated per worker domain, slot 0
   the loaded model itself) and its HNSW index.  The daemon owns one slot per
   kernel it serves; every query resolves to exactly one slot, and cache keys
   are namespaced by the slot's kernel name so answers can never cross. *)
type slot = {
  kernel : Waco.Kernel.t;
  replicas : Waco.Costmodel.t array;
  index : Waco.Tuner.index;
}

type t = {
  socket_path : string;  (* the listen endpoint spec ([Addr] syntax) *)
  loop : unit Loop.t;
  machine : Machine.t;
  slots : slot array;  (* slot 0 is the primary (the ~model/~index pair) *)
  default_slot : int;
      (* what a kernel-less (pre-kernel client) query gets: the spmv slot
         when served, else the primary *)
  pool : Parallel.Pool.t option;
  cache : Cache.t;
  cache_file : string option;
  cache_status : string;
  metrics : Metrics.t;
  max_batch : int;
  k : int;
  ef : int;
  max_pending : int;  (* queued-query high-water mark; past it, shed *)
  log : string -> unit;
  queue : (unit Loop.conn * Protocol.request * float * float) Queue.t;
      (* request, arrival time, seconds spent decoding its frame body *)
  mutable pending_queries : int;  (* queries currently in [queue] *)
}

let metrics t = t.metrics
let cache t = t.cache
let cache_status t = t.cache_status
let bound_endpoint t = Loop.bound t.loop

let kernel_names slots =
  Array.to_list (Array.map (fun s -> Waco.Kernel.name s.kernel) slots)

let slot_of_kernel slots k =
  Array.find_index (fun s -> Waco.Kernel.equal s.kernel k) slots

let index_digest (index : Waco.Tuner.index) =
  Anns.Hnsw.fingerprint index.Waco.Tuner.hnsw ~payload:Schedule.Sched_io.serialize

let create ?pool ?(cache_capacity = 512) ?cache_file ?(max_batch = 32) ?(k = 10)
    ?(ef = 40) ?(max_pending = 256) ?(idle_timeout_s = 60.0)
    ?(frame_timeout_s = 10.0) ?(write_timeout_s = 5.0) ?(log = ignore)
    ?(extra = []) ~model ~index ~index_file ~machine ~socket () =
  let domains = match pool with Some p -> Parallel.Pool.domains p | None -> 1 in
  let mk_slot (m, idx, idx_file) =
    Waco.Tuner.validate_compat m ~index_file:idx_file idx;
    let kernel = Waco.Costmodel.kernel_of m in
    if Waco.Kernel.equal kernel Waco.Kernel.Mttkrp then
      invalid_arg
        "Server.create: mttkrp needs a 3-D tensor; the wire protocol carries \
         2-D matrices";
    {
      kernel;
      replicas =
        Array.init (max 1 domains) (fun i ->
            if i = 0 then m else Waco.Costmodel.replicate m);
      index = idx;
    }
  in
  let slots =
    Array.of_list (List.map mk_slot ((model, index, index_file) :: extra))
  in
  Array.iteri
    (fun i s ->
      if slot_of_kernel slots s.kernel <> Some i then
        invalid_arg
          (Printf.sprintf "Server.create: kernel %s served twice"
             (Waco.Kernel.name s.kernel)))
    slots;
  let default_slot =
    Option.value ~default:0 (slot_of_kernel slots Waco.Kernel.default)
  in
  let join f = String.concat "+" (Array.to_list (Array.map f slots)) in
  let model_digest = join (fun s -> Waco.Costmodel.digest s.replicas.(0)) in
  let idx_digest = join (fun s -> index_digest s.index) in
  let namespaces = kernel_names slots in
  let machine_name = machine.Machine.name in
  let cache, cache_status =
    match cache_file with
    | Some file when Sys.file_exists file -> (
        match
          Cache.load ~capacity:cache_capacity ~namespaces ~model_digest
            ~index_digest:idx_digest ~machine:machine_name file
        with
        | Ok { cache; status = `Warm n } ->
            log (Printf.sprintf "cache: warm with %d entries from %s" n file);
            (cache, Printf.sprintf "warm(%d)" n)
        | Ok { cache; status = `Invalidated reason } ->
            log ("cache: snapshot invalidated: " ^ reason);
            (cache, "invalidated")
        | Error e ->
            log
              ("cache: snapshot unusable, starting cold: "
              ^ Robust.load_error_to_string e);
            ( Cache.create ~capacity:cache_capacity ~model_digest
                ~index_digest:idx_digest ~machine:machine_name (),
              "damaged" ))
    | _ ->
        ( Cache.create ~capacity:cache_capacity ~model_digest
            ~index_digest:idx_digest ~machine:machine_name (),
          "cold" )
  in
  let metrics = Metrics.create () in
  {
    socket_path = socket;
    loop =
      Loop.create ~idle_timeout_s ~frame_timeout_s ~write_timeout_s ~log
        ~counters:metrics.Metrics.io socket;
    machine;
    slots;
    default_slot;
    pool;
    cache;
    cache_file;
    cache_status;
    metrics;
    max_batch = max 1 max_batch;
    k;
    ef;
    max_pending = max 1 max_pending;
    log;
    queue = Queue.create ();
    pending_queries = 0;
  }

(* --- query processing ------------------------------------------------- *)

let coo_of_source = function
  | Protocol.Path p -> (
      match Sptensor.Mmio.read_coo p with
      | m -> Ok m
      | exception Sptensor.Mmio.Parse_error e ->
          Error (Printf.sprintf "%s: %s" p e)
      | exception Sys_error e -> Error e)
  | Protocol.Inline { nrows; ncols; entries } -> (
      match Sptensor.Coo.of_triplet_array ~nrows ~ncols entries with
      | m -> Ok m
      | exception Invalid_argument e -> Error e)

(* Cache keys separate the measured and predict-only answer spaces: the two
   modes legitimately choose different schedules for the same pattern.  The
   kernel-name prefix partitions the key space per served kernel, so the
   same sparsity fingerprint can never hand one kernel's schedule to
   another's query. *)
let cache_key_of ~kernel ~measure fp =
  Waco.Kernel.name kernel ^ "/" ^ Fingerprint.key fp
  ^ if measure then "" else "#p"

(* Which slot answers a query: its named kernel's, or — kernel omitted, a
   pre-kernel client — the daemon's default slot.  A recognized kernel the
   daemon does not serve is a per-query error, never a silent substitute. *)
let slot_for t (kernel : Waco.Kernel.t option) =
  match kernel with
  | None -> Ok t.default_slot
  | Some k -> (
      match slot_of_kernel t.slots k with
      | Some i -> Ok i
      | None ->
          Error
            (Printf.sprintf "kernel %s not served (this daemon serves %s)"
               (Waco.Kernel.name k)
               (String.concat ", " (kernel_names t.slots))))

let answer_of_result ~cache_hit ~span (r : Waco.Tuner.result) : Protocol.answer =
  {
    Protocol.schedule = Schedule.Sched_io.serialize r.Waco.Tuner.best;
    predicted = r.Waco.Tuner.best_predicted;
    measured = r.Waco.Tuner.best_measured;
    cache_hit;
    degraded = r.Waco.Tuner.degraded;
    degraded_reason = r.Waco.Tuner.degraded_reason;
    spans = Metrics.span_fields span;
  }

let answer_of_entry ~span (e : Cache.entry) : Protocol.answer =
  {
    Protocol.schedule = e.Cache.schedule;
    predicted = e.Cache.predicted;
    measured = e.Cache.measured;
    cache_hit = true;
    degraded = e.Cache.degraded;
    degraded_reason = None;
    spans = Metrics.span_fields span;
  }

(* [deadline_ms] on the wire -> an absolute expiry instant, from the moment
   the daemon first saw the request (frame decode), not batch dispatch — the
   budget covers queue wait too. *)
let deadline_at_of (q : Protocol.query) ~arrival =
  if q.Protocol.deadline_ms > 0 then
    Some (arrival +. (float_of_int q.Protocol.deadline_ms /. 1000.0))
  else None

let expired = function
  | None -> false
  | Some d -> Robust.mono_now () >= d

(* Merge two members' deadlines for one deduplicated computation: the group
   runs under the laxest member (None = no deadline at all), so a tight
   straggler can never degrade a relaxed client's answer. *)
let merge_deadline a b =
  match (a, b) with Some x, Some y -> Some (Float.max x y) | _ -> None

(* Fold one computed result's spend into the cumulative counters — shared
   by the per-miss (pool) and batched (single-domain) phase-B paths. *)
let note_result t (r : Waco.Tuner.result) =
  Metrics.bump t.metrics (fun m ->
      m.measured_runs <- m.measured_runs + r.Waco.Tuner.measured_runs;
      m.measure_failures <- m.measure_failures + r.Waco.Tuner.measure_failures;
      m.retries_absorbed <- m.retries_absorbed + r.Waco.Tuner.measure_retries;
      m.asym_pruned <- m.asym_pruned + r.Waco.Tuner.asym_pruned;
      if r.Waco.Tuner.degraded then m.degraded <- m.degraded + 1)

(* One computed miss: run the factored tuner entry point on the resolved
   slot's worker replica and record what it spent. *)
let compute_one t slot ~worker ~key ~measure ?deadline_at m =
  let mt = t.metrics in
  Metrics.bump mt (fun m ->
      m.extractor_forwards <- m.extractor_forwards + 1;
      m.traversals <- m.traversals + 1);
  let r =
    Waco.Tuner.query slot.replicas.(worker) t.machine ~k:t.k ~ef:t.ef ~measure
      ?deadline_at ~id:key m slot.index
  in
  note_result t r;
  r

(* The single-domain phase B: group the distinct misses by kernel slot (in
   first-appearance order, so the cache-insertion order of phase C is
   unchanged) and run each group through [Tuner.query_batch] — all of a
   group's uncached features come from one batched extractor-plan execution
   (DESIGN.md §14) instead of one eager forward per miss. *)
let compute_batched t miss_keys misses computed =
  let group_order = ref [] in
  let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 4 in
  Array.iteri
    (fun i key ->
      let si, _, _, _ = Hashtbl.find misses key in
      match Hashtbl.find_opt groups si with
      | Some members -> members := i :: !members
      | None ->
          Hashtbl.add groups si (ref [ i ]);
          group_order := si :: !group_order)
    miss_keys;
  List.iter
    (fun si ->
      let idxs = Array.of_list (List.rev !(Hashtbl.find groups si)) in
      let slot = t.slots.(si) in
      let queries =
        Array.map
          (fun i ->
            let key = miss_keys.(i) in
            let _, m, measure, deadline_at = Hashtbl.find misses key in
            {
              Waco.Tuner.bq_id = key;
              bq_coo = m;
              bq_measure = measure;
              bq_deadline_at = deadline_at;
            })
          idxs
      in
      Metrics.bump t.metrics (fun m ->
          m.extractor_forwards <- m.extractor_forwards + Array.length idxs;
          m.traversals <- m.traversals + Array.length idxs;
          m.vm_batched_runs <- m.vm_batched_runs + 1);
      let results =
        Waco.Tuner.query_batch slot.replicas.(0) t.machine ~k:t.k ~ef:t.ef
          queries slot.index
      in
      Array.iteri
        (fun j i ->
          note_result t results.(j);
          Hashtbl.replace computed miss_keys.(i) results.(j))
        idxs)
    (List.rev !group_order)

(* The expired-before-compute answer: the asymptotic analyzer's
   guaranteed-not-terrible pick, unmeasured — there is no time left for a
   traversal, let alone a simulator run.  Degraded, so never cached. *)
let deadline_fallback t slot ~key ~span m =
  let wl = Workload.of_coo ~id:key m in
  let algo = slot.replicas.(0).Waco.Costmodel.algo in
  let r =
    Waco.Tuner.degraded ~measure:false t.machine wl algo ~reason:"deadline"
  in
  Metrics.bump t.metrics (fun m ->
      m.cache_misses <- m.cache_misses + 1;
      m.degraded <- m.degraded + 1;
      m.answers <- m.answers + 1);
  Metrics.record_span t.metrics span;
  Protocol.Answer (answer_of_result ~cache_hit:false ~span r)

(* Write-through persist of the schedule cache.  A failure is counted and
   logged, never raised: the daemon keeps serving from memory. *)
let persist t =
  match t.cache_file with
  | Some file -> (
      try Cache.save t.cache file
      with e ->
        Metrics.bump t.metrics (fun m ->
            m.cache_persist_failures <- m.cache_persist_failures + 1);
        t.log
          (Printf.sprintf "cache: persist to %s failed: %s" file
             (Printexc.to_string e)))
  | None -> ()

(* Process one micro-batch of queries, each stamped with its arrival time
   and the seconds its frame body took to decode.  Returns each query's
   response in input order. *)
let process_stamped t (batch : (Protocol.query * float * float) list) :
    Protocol.response list =
  Metrics.record_batch t.metrics (List.length batch);
  (* Phase A (sequential, cheap): parse + fingerprint + cache probe.  A
     query's [parse_s] covers its wire decode too. *)
  let parsed =
    List.map
      (fun ((q : Protocol.query), arrival, decode_s) ->
        let span = Metrics.span_create () in
        let t0 = Robust.mono_now () in
        let outcome =
          match slot_for t q.Protocol.kernel with
          | Error e -> `Err e
          | Ok si -> (
              match coo_of_source q.Protocol.source with
              | Error e -> `Err e
              | Ok m ->
                  `Parsed
                    ( si,
                      cache_key_of ~kernel:t.slots.(si).kernel
                        ~measure:q.Protocol.measure (Fingerprint.of_coo m),
                      m ))
        in
        span.Metrics.parse_s <- decode_s +. (Robust.mono_now () -. t0);
        (q, deadline_at_of q ~arrival, span, outcome))
      batch
  in
  (* Distinct cache misses, in first-appearance order (kept stable so pool
     and sequential runs compute the same work list).  A miss whose deadline
     has already expired is not computed at all — it answers from the
     fallback below. *)
  let miss_order = ref [] in
  let misses = Hashtbl.create 8 in
  List.iter
    (fun (q, dl, _, outcome) ->
      match outcome with
      | `Err _ -> ()
      | `Parsed (si, key, m) ->
          if Cache.find t.cache key = None then begin
            match Hashtbl.find_opt misses key with
            | Some (si0, m0, measure0, dl0) ->
                (* Another member already claims this key: relax the group
                   deadline to the laxest member. *)
                Hashtbl.replace misses key
                  (si0, m0, measure0, merge_deadline dl0 dl)
            | None ->
                if not (expired dl) then begin
                  Hashtbl.add misses key (si, m, q.Protocol.measure, dl);
                  miss_order := key :: !miss_order
                end
          end)
    parsed;
  let miss_keys = Array.of_list (List.rev !miss_order) in
  (* Phase B: compute the distinct misses — concurrently when the pool and
     the batch depth allow it, else slot-grouped through the batched
     compiled plans.  Either way, one observability record per dispatch. *)
  Metrics.record_phase_b t.metrics (Array.length miss_keys);
  let computed = Hashtbl.create 8 in
  (match t.pool with
  | Some p when Parallel.Pool.domains p > 1 && Array.length miss_keys > 1 ->
      let results =
        Parallel.Pool.map_workers p
          (fun ~worker key ->
            let si, m, measure, deadline_at = Hashtbl.find misses key in
            compute_one t t.slots.(si) ~worker ~key ~measure ?deadline_at m)
          miss_keys
      in
      Array.iteri (fun i r -> Hashtbl.replace computed miss_keys.(i) r) results
  | _ -> compute_batched t miss_keys misses computed);
  (* Features are per pattern and every computed answer is already in hand,
     so the replicas' feature and pyramid caches only grow from here on:
     dropping them bounds daemon memory by the schedule LRU, not by the
     number of distinct patterns ever seen. *)
  Array.iter
    (fun s -> Array.iter Waco.Costmodel.clear_feature_cache s.replicas)
    t.slots;
  (* Phase C (sequential): cache insertion in deterministic order, one
     write-through persist per batch, answers in input order.  Degraded
     answers — including every deadline-truncated one — never enter the
     cache. *)
  let fresh = ref false in
  Array.iter
    (fun key ->
      let r = Hashtbl.find computed key in
      if not r.Waco.Tuner.degraded then begin
        Cache.add t.cache key
          {
            Cache.schedule = Schedule.Sched_io.serialize r.Waco.Tuner.best;
            predicted = r.Waco.Tuner.best_predicted;
            measured = r.Waco.Tuner.best_measured;
            degraded = false;
          };
        fresh := true
      end)
    miss_keys;
  if !fresh then persist t;
  let note_deadline_miss dl (resp : Protocol.response) =
    let reason_is_deadline =
      match resp with
      | Protocol.Answer a -> a.Protocol.degraded_reason = Some "deadline"
      | _ -> false
    in
    if reason_is_deadline || expired dl then
      Metrics.bump t.metrics (fun m ->
          m.deadline_misses <- m.deadline_misses + 1);
    resp
  in
  List.map
    (fun ((_q : Protocol.query), dl, span, outcome) ->
      match outcome with
      | `Err e ->
          Metrics.bump t.metrics (fun m ->
              m.request_errors <- m.request_errors + 1);
          Metrics.record_span t.metrics span;
          Protocol.Error_msg e
      | `Parsed (si, key, m) -> (
          match Hashtbl.find_opt computed key with
          | Some r ->
              span.Metrics.extract_s <- r.Waco.Tuner.feature_seconds;
              span.Metrics.traverse_s <- r.Waco.Tuner.search_seconds;
              span.Metrics.measure_s <- r.Waco.Tuner.measure_seconds;
              Metrics.bump t.metrics (fun m ->
                  m.cache_misses <- m.cache_misses + 1;
                  m.answers <- m.answers + 1);
              Metrics.record_span t.metrics span;
              note_deadline_miss dl
                (Protocol.Answer (answer_of_result ~cache_hit:false ~span r))
          | None -> (
              (* Not computed this batch: a cache hit at probe time, or a
                 miss whose deadline expired before compute. *)
              match Cache.find t.cache key with
              | Some entry ->
                  Metrics.bump t.metrics (fun m ->
                      m.cache_hits <- m.cache_hits + 1;
                      m.answers <- m.answers + 1);
                  Metrics.record_span t.metrics span;
                  note_deadline_miss dl
                    (Protocol.Answer (answer_of_entry ~span entry))
              | None ->
                  if expired dl then
                    note_deadline_miss dl
                      (deadline_fallback t t.slots.(si) ~key ~span m)
                  else begin
                    Metrics.bump t.metrics (fun m ->
                        m.request_errors <- m.request_errors + 1);
                    Protocol.Error_msg
                      "internal: answer neither cached nor computed"
                  end)))
    parsed

(* Process one micro-batch of decoded queries, all stamped as arriving now.
   The socket path stamps arrival at frame decode instead, so a queued
   query's deadline budget includes its queue wait. *)
let process_batch t (batch : Protocol.query list) : Protocol.response list =
  let now = Robust.mono_now () in
  process_stamped t (List.map (fun q -> (q, now, 0.0)) batch)

(* --- the frame handler -------------------------------------------------- *)

let stats_json t =
  let sum f = Array.fold_left (fun acc s -> acc + f s.index) 0 t.slots in
  Metrics.to_json
    ~extra_ints:
      [
        ("cache_size", Cache.size t.cache);
        ("cache_capacity", Cache.capacity t.cache);
        ("cache_evictions", Cache.evictions t.cache);
        ("index_size", sum (fun i -> Anns.Hnsw.size i.Waco.Tuner.hnsw));
        ("index_lint_rejected", sum (fun i -> i.Waco.Tuner.lint_rejected));
        ("index_asym_rejected", sum (fun i -> i.Waco.Tuner.asym_rejected));
        ("domains", Array.length t.slots.(0).replicas);
        ("pending", t.pending_queries);
        ("max_pending", t.max_pending);
        ("connections", Loop.connections t.loop);
      ]
    ~extra:
      [
        ("socket", t.socket_path);
        ("listen", Option.value (Loop.bound t.loop) ~default:t.socket_path);
        ("machine", t.machine.Machine.name);
        ("cache_status", t.cache_status);
        ("kernels", String.concat "+" (kernel_names t.slots));
        ("default_kernel", Waco.Kernel.name t.slots.(t.default_slot).kernel);
      ]
    t.metrics

(* The [Busy] hint scales with how deep the backlog already is: a client
   told to come back later should not come back into the same wall. *)
let retry_hint t =
  min 2000 (50 * (1 + (t.pending_queries / t.max_batch)))

let send t conn resp = Loop.send t.loop conn (Protocol.response_to_frame resp)

(* One complete frame off a connection: enqueue a well-formed request,
   answer an undecodable body.  Past the pending high-water mark a new
   query answers [Busy] instead of queueing — control requests
   (stats/ping/shutdown) always get through, so an overloaded daemon stays
   observable and stoppable. *)
let on_frame t conn msg body =
  let t0 = Robust.mono_now () in
  let decoded = Protocol.request_of_frame ~msg body in
  let arrival = Robust.mono_now () in
  match decoded with
  | Ok req -> (
      Metrics.bump t.metrics (fun m -> m.requests <- m.requests + 1);
      match req with
      | Protocol.Query _ when t.pending_queries >= t.max_pending ->
          Metrics.bump t.metrics (fun m -> m.shed <- m.shed + 1);
          send t conn (Protocol.Busy { retry_after_ms = retry_hint t })
      | Protocol.Query _ ->
          t.pending_queries <- t.pending_queries + 1;
          Queue.add (conn, req, arrival, arrival -. t0) t.queue
      | _ -> Queue.add (conn, req, arrival, 0.0) t.queue)
  | Error e ->
      let io = t.metrics.Metrics.io in
      io.protocol_errors <- io.protocol_errors + 1;
      send t conn (Protocol.Error_msg ("request: " ^ e))

(* Drain the request FIFO: control requests answer inline, runs of queries
   dispatch as micro-batches of at most [max_batch].  FIFO order per
   connection is preserved — a client that pipelines query;stats sees the
   stats taken after its query. *)
let drain_queue t =
  while not (Queue.is_empty t.queue) do
    match Queue.peek t.queue with
    | _, Protocol.Stats, _, _ ->
        let conn, _, _, _ = Queue.pop t.queue in
        send t conn (Protocol.Stats_json (stats_json t))
    | _, Protocol.Ping, _, _ ->
        let conn, _, _, _ = Queue.pop t.queue in
        send t conn Protocol.Pong
    | _, Protocol.Shutdown, _, _ ->
        let conn, _, _, _ = Queue.pop t.queue in
        Loop.stop t.loop;
        send t conn Protocol.Bye
    | _, Protocol.Query _, _, _ ->
        (* Collect the contiguous run of queries at the head. *)
        let conns = ref [] and queries = ref [] in
        let continue = ref true in
        while
          !continue
          && (not (Queue.is_empty t.queue))
          && List.length !queries < t.max_batch
        do
          match Queue.peek t.queue with
          | conn, Protocol.Query q, arrival, decode_s ->
              ignore (Queue.pop t.queue);
              t.pending_queries <- t.pending_queries - 1;
              conns := conn :: !conns;
              queries := (q, arrival, decode_s) :: !queries
          | _ -> continue := false
        done;
        let conns = List.rev !conns and queries = List.rev !queries in
        let responses = process_stamped t queries in
        List.iter2 (fun conn resp -> send t conn resp) conns responses
  done

let run ?(on_ready = ignore) t =
  Fun.protect ~finally:(fun () -> persist t) (fun () ->
      Loop.run t.loop
        ~on_ready:(fun () ->
          t.log (Printf.sprintf "listening on %s" (Option.get (Loop.bound t.loop)));
          on_ready ())
        ~on_round:(fun () -> drain_queue t)
        ~init:ignore ~on_frame:(on_frame t))
