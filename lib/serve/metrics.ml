(* The daemon's observability surface: monotonic counters plus cumulative
   per-phase seconds, mutex-serialized because the request scheduler updates
   them from pool workers.  A [stats] request dumps everything as JSON
   (hand-rolled like the bench files — no JSON dependency in the image).

   Per-request trace spans are collected in a [span] record owned by one
   request (no locking) and folded into the cumulative counters once the
   request completes. *)

type span = {
  mutable parse_s : float;
  mutable extract_s : float;
  mutable traverse_s : float;
  mutable measure_s : float;
}

let span_create () =
  { parse_s = 0.0; extract_s = 0.0; traverse_s = 0.0; measure_s = 0.0 }

let span_fields s =
  [
    ("parse", s.parse_s);
    ("extract", s.extract_s);
    ("traverse", s.traverse_s);
    ("measure", s.measure_s);
  ]

(* Connection-level counters.  Only the serving loop's thread bumps them,
   so they are plain fields outside the mutex; the daemon and the router
   both report them under these names. *)
type io = {
  mutable protocol_errors : int;  (* bad frames / undecodable bodies *)
  mutable write_stalls : int;  (* connections dropped for not draining writes *)
  mutable reaped_idle : int;  (* connections closed for total silence *)
  mutable reaped_trickle : int;  (* connections closed mid-frame for stalling *)
  mutable refused : int;  (* accepted past the connection cap, closed at once *)
  mutable accept_errors : int;  (* accept failures other than EAGAIN/EINTR *)
}

let io_create () =
  { protocol_errors = 0; write_stalls = 0; reaped_idle = 0; reaped_trickle = 0;
    refused = 0; accept_errors = 0 }

let io_fields io =
  [
    ("protocol_errors", io.protocol_errors);
    ("reaped_idle", io.reaped_idle);
    ("reaped_trickle", io.reaped_trickle);
    ("write_stalls", io.write_stalls);
    ("refused", io.refused);
    ("accept_errors", io.accept_errors);
  ]

type t = {
  mu : Mutex.t;
  io : io;
  started : float;
  mutable requests : int;  (* frames decoded into a well-formed request *)
  mutable answers : int;
  mutable request_errors : int;  (* well-formed requests that failed *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable degraded : int;  (* answers served by the fixed-CSR fallback *)
  mutable retries_absorbed : int;  (* measurement retries that recovered *)
  mutable measure_failures : int;
  mutable extractor_forwards : int;  (* feature extractions actually run *)
  mutable traversals : int;  (* HNSW searches actually run *)
  mutable measured_runs : int;
  mutable asym_pruned : int;  (* traversal candidates rejected symbolically *)
  mutable batches : int;  (* micro-batches dispatched *)
  mutable batched_requests : int;  (* queries carried by those batches *)
  mutable max_batch : int;
  mutable phase_b_batches : int;  (* phase-B dispatches with >= 1 miss *)
  mutable phase_b_misses : int;  (* distinct misses those dispatches carried *)
  mutable phase_b_max : int;  (* largest distinct-miss group so far *)
  phase_b_hist : int array;  (* miss-count histogram: 1 / 2-3 / 4-7 / 8-15 / 16+ *)
  mutable vm_batched_runs : int;  (* per-kernel-slot batched plan executions *)
  mutable cache_persist_failures : int;
  mutable shed : int;  (* queries answered [Busy] past the high-water mark *)
  mutable deadline_misses : int;  (* answers marked degraded_reason=deadline *)
  mutable parse_s : float;
  mutable extract_s : float;
  mutable traverse_s : float;
  mutable measure_s : float;
}

let create () =
  {
    mu = Mutex.create ();
    io = io_create ();
    started = Robust.wall_now ();
    requests = 0;
    answers = 0;
    request_errors = 0;
    cache_hits = 0;
    cache_misses = 0;
    degraded = 0;
    retries_absorbed = 0;
    measure_failures = 0;
    extractor_forwards = 0;
    traversals = 0;
    measured_runs = 0;
    asym_pruned = 0;
    batches = 0;
    batched_requests = 0;
    max_batch = 0;
    phase_b_batches = 0;
    phase_b_misses = 0;
    phase_b_max = 0;
    phase_b_hist = Array.make 5 0;
    vm_batched_runs = 0;
    cache_persist_failures = 0;
    shed = 0;
    deadline_misses = 0;
    parse_s = 0.0;
    extract_s = 0.0;
    traverse_s = 0.0;
    measure_s = 0.0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let bump t field = locked t (fun () -> field t)

let record_batch t n =
  locked t (fun () ->
      t.batches <- t.batches + 1;
      t.batched_requests <- t.batched_requests + n;
      t.max_batch <- max t.max_batch n)

(* Histogram bucket for a phase-B distinct-miss count (n >= 1):
   1 / 2-3 / 4-7 / 8-15 / 16+. *)
let phase_b_bucket n =
  if n <= 1 then 0
  else if n <= 3 then 1
  else if n <= 7 then 2
  else if n <= 15 then 3
  else 4

let record_phase_b t n =
  if n > 0 then
    locked t (fun () ->
        t.phase_b_batches <- t.phase_b_batches + 1;
        t.phase_b_misses <- t.phase_b_misses + n;
        t.phase_b_max <- max t.phase_b_max n;
        let b = phase_b_bucket n in
        t.phase_b_hist.(b) <- t.phase_b_hist.(b) + 1)

let record_span t (s : span) =
  locked t (fun () ->
      t.parse_s <- t.parse_s +. s.parse_s;
      t.extract_s <- t.extract_s +. s.extract_s;
      t.traverse_s <- t.traverse_s +. s.traverse_s;
      t.measure_s <- t.measure_s +. s.measure_s)

(* Counter snapshot for assertions and JSON: name -> value, fixed order. *)
let counters t =
  locked t (fun () ->
      [
        ("requests", t.requests);
        ("answers", t.answers);
        ("request_errors", t.request_errors);
        ("cache_hits", t.cache_hits);
        ("cache_misses", t.cache_misses);
        ("degraded", t.degraded);
        ("retries_absorbed", t.retries_absorbed);
        ("measure_failures", t.measure_failures);
        ("extractor_forwards", t.extractor_forwards);
        ("traversals", t.traversals);
        ("measured_runs", t.measured_runs);
        ("asym_pruned", t.asym_pruned);
        ("batches", t.batches);
        ("batched_requests", t.batched_requests);
        ("max_batch", t.max_batch);
        ("phase_b_batches", t.phase_b_batches);
        ("phase_b_misses", t.phase_b_misses);
        ("phase_b_max", t.phase_b_max);
        ("phase_b_hist_1", t.phase_b_hist.(0));
        ("phase_b_hist_2_3", t.phase_b_hist.(1));
        ("phase_b_hist_4_7", t.phase_b_hist.(2));
        ("phase_b_hist_8_15", t.phase_b_hist.(3));
        ("phase_b_hist_16_plus", t.phase_b_hist.(4));
        ("vm_batched_runs", t.vm_batched_runs);
        ("cache_persist_failures", t.cache_persist_failures);
        ("shed", t.shed);
        ("deadline_misses", t.deadline_misses);
      ]
      @ io_fields t.io)

let counter t name = List.assoc_opt name (counters t)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ?(extra_ints = []) ?(extra = []) t =
  let ints = counters t @ extra_ints in
  let floats =
    locked t (fun () ->
        [
          ("uptime_s", Robust.wall_now () -. t.started);
          ("parse_s", t.parse_s);
          ("extract_s", t.extract_s);
          ("traverse_s", t.traverse_s);
          ("measure_s", t.measure_s);
        ])
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  List.iter (fun (k, v) -> Printf.bprintf buf "  \"%s\": %d,\n" k v) ints;
  List.iter (fun (k, v) -> Printf.bprintf buf "  \"%s\": %.6f,\n" k v) floats;
  List.iter
    (fun (k, v) ->
      Printf.bprintf buf "  \"%s\": \"%s\",\n" (json_escape k) (json_escape v))
    extra;
  Printf.bprintf buf "  \"protocol_version\": %d\n" Protocol.version;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Pull an integer counter back out of a stats JSON dump — the client-side
   half of the observability loop (tests and `waco query --stats`). *)
let json_counter text name =
  let needle = "\"" ^ name ^ "\":" in
  let tlen = String.length text and nlen = String.length needle in
  let rec find i =
    if i + nlen > tlen then None
    else if String.sub text i nlen = needle then begin
      let j = ref (i + nlen) in
      while !j < tlen && text.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < tlen
        && (match text.[!k] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr k
      done;
      int_of_string_opt (String.sub text !j (!k - !j))
    end
    else find (i + 1)
  in
  find 0
