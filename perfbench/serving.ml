(* The serving workloads: `waco serve` / `waco route` run as separate
   processes, loaded by this process over their sockets. *)

open Sptensor

let nproc = Domain.recommended_domain_count ()
let setups = 3

let stop_all procs =
  List.iter
    (fun (p : Tier.proc) ->
      Checks.expect Report.checks (Tier.stop p)
        "%s left a process or socket behind" p.Tier.name)
    procs

(* [setups] rounds of set-up — encode every query frame, start the tier
   cold — each tier stopped before the next round; the last stays up.
   Set-up time is their median. *)
let start_tier start =
  let runs =
    Array.init setups (fun k ->
        let procs, dt = Util.timed (fun () -> start k) in
        if k < setups - 1 then stop_all procs;
        (procs, dt))
  in
  Report.set "setup_s" (Util.median (Array.map snd runs));
  Util.log "set-up rounds: %s"
    (String.concat " " (Array.to_list (Array.map (fun (_, dt) -> Printf.sprintf "%.3f" dt) runs)));
  fst runs.(setups - 1)

let latency_metrics samples elapsed =
  let ok =
    Array.of_list
      (List.filter_map
         (fun (s : Load.sample) ->
           match s.Load.outcome with
           | Load.Answer _ -> Some (s.Load.done_ -. s.Load.sent)
           | Load.Failed _ -> None)
         (Array.to_list samples))
  in
  Report.set "latency_p50_ms" (1e3 *. Util.quantile ok 0.5);
  Report.set "throughput_qps" (float_of_int (Array.length ok) /. elapsed);
  (* Logged, not reported: see README.md on the tail's spread. *)
  Util.log "%d answers in %.2f s, p99 %.1f ms" (Array.length ok) elapsed
    (1e3 *. Util.quantile ok 0.99)

(* Every answered schedule is legal, runs correctly on its matrix, and a
   measured one carries the simulator's exact time; a hit repeats the
   schedule first answered for its key.  Returns the per-matrix speedups. *)
let check_answers ~mats ~measure ~first samples =
  let wls = Hashtbl.create 256 and seen = Hashtbl.create 256 in
  let timed_speedup = Hashtbl.create 256 in
  let speedups = ref [] in
  Array.iter
    (fun (s : Load.sample) ->
      match s.Load.outcome with
      | Load.Failed reason ->
          Report.attempt false;
          Util.log "query %d failed: %s" s.Load.qi reason
      | Load.Answer a ->
          Report.attempt true;
          let qi = s.Load.qi in
          let what = Printf.sprintf "query %d" qi in
          let key, m = mats.(qi) in
          let text = a.Serve.Protocol.schedule in
          (match Hashtbl.find_opt first (key, measure qi) with
          | Some t0 ->
              Checks.expect Report.checks (t0 = text)
                "%s: answered %s, first answer for its key was %s" what text t0
          | None -> Hashtbl.add first (key, measure qi) text);
          if not (Hashtbl.mem seen (qi, text)) then begin
            Hashtbl.add seen (qi, text) ();
            let wl =
              match Hashtbl.find_opt wls qi with
              | Some wl -> wl
              | None ->
                  let wl = Machine_model.Workload.of_coo ~id:key m in
                  Hashtbl.add wls qi wl;
                  wl
            in
            match Checks.schedule Report.checks ~what text with
            | None -> ()
            | Some sched ->
                Checks.kernel Report.checks ~what sched m;
                if measure qi then
                  Checks.measured Report.checks ~what wl sched
                    a.Serve.Protocol.measured;
                if not (Hashtbl.mem timed_speedup qi) then begin
                  Hashtbl.add timed_speedup qi ();
                  speedups := Checks.speedup wl sched :: !speedups
                end
          end)
    samples;
  Array.of_list !speedups

let hwm procs = Util.sum (Array.of_list (List.map Tier.hwm_mib procs))

(* --- serve-miss ---------------------------------------------------------- *)

let miss_rate = 150.0

let serve_miss ~seed ~seconds ~dir () =
  let b = Pipeline.build () in
  Pipeline.report b;
  let model_file, index_file = Pipeline.save_artifacts b ~dir in
  let count = int_of_float (seconds *. miss_rate) in
  let (pats, collisions), gen_s =
    Util.timed (fun () -> Inputs.miss_patterns seed ~count)
  in
  Util.log "%d distinct patterns in %.2f s (%d fingerprint collisions redrawn)"
    count gen_s collisions;
  let measure qi = qi mod 2 = 0 in
  let mats = Array.map (fun m -> (Inputs.fp_key m, m)) pats in
  let encode () =
    Array.mapi
      (fun qi m -> Inputs.query_frame ~qid:(string_of_int qi) ~measure:(measure qi) m)
      pats
  in
  let frames = ref [||] in
  let daemon =
    match
      start_tier (fun k ->
          frames := encode ();
          let p =
            Tier.serve ~dir ~name:(Printf.sprintf "miss%d" k) ~model_file
              ~index_file ~domains:1 ~cache_capacity:8192
          in
          Tier.wait_ready p;
          [ p ])
    with
    | [ p ] -> p
    | _ -> assert false
  in
  let frames = !frames in
  Fun.protect ~finally:(fun () -> Tier.kill_all [ daemon ]) @@ fun () ->
  let before = Probes.snapshot [ daemon ] in
  let sent = ref 0 in
  let next () =
    if !sent < count then begin
      incr sent;
      Some (!sent - 1)
    end
    else None
  in
  let samples, elapsed =
    Load.run ~conns:nproc ~window:4 ~endpoint:daemon.Tier.endpoint ~frames
      ~next ~seconds:infinity ()
  in
  let after = Probes.snapshot [ daemon ] in
  latency_metrics samples elapsed;
  Report.set "peak_rss_mib" (hwm [ daemon ]);
  if !Trace.enabled then begin
    let final = Probes.server ~before ~after in
    Probes.pipeline b;
    let sample = Array.sub mats 0 (min 24 (Array.length mats)) in
    Probes.tune_sample b sample;
    Probes.nn b sample;
    Probes.wire (Array.sub frames 0 (min 400 (Array.length frames)));
    let entries =
      Array.to_list samples
      |> List.filter_map (fun (s : Load.sample) ->
             match s.Load.outcome with
             | Load.Answer a ->
                 Some
                   ( fst mats.(s.Load.qi),
                     {
                       Serve.Cache.schedule = a.Serve.Protocol.schedule;
                       predicted = a.Serve.Protocol.predicted;
                       measured = a.Serve.Protocol.measured;
                       degraded = false;
                     } )
             | Load.Failed _ -> None)
    in
    Probes.cache ~dir ~size:(int_of_float final) entries;
    Probes.artifacts ~model_file ~index_file;
    (* A router in front of the daemon, for the hop and the router's cost
       per query on answers the daemon already holds. *)
    let router = Tier.route ~dir ~name:"missroute" [ daemon ] in
    Fun.protect ~finally:(fun () -> Tier.kill_all [ router ]) @@ fun () ->
    Tier.wait_ready router;
    let ring = Serve.Router.Ring.create [ daemon.Tier.endpoint ] in
    let hop_frames =
      Array.init (min 16 (Array.length samples)) (fun i ->
          let qi = samples.(i).Load.qi in
          (fst mats.(qi), frames.(qi)))
    in
    Report.set "serve.router.cpu_ms_per_query"
      (1e3 *. Probes.hop ~router ~ring ~shards:[ daemon ] hop_frames);
    stop_all [ router ]
  end;
  stop_all [ daemon ];
  let first = Hashtbl.create 1024 in
  let speedups, check_s =
    Util.timed (fun () -> check_answers ~mats ~measure ~first samples)
  in
  Util.log "checks took %.2f s" check_s;
  Report.set "speedup_vs_csr" (Util.geomean speedups)

(* --- serve-ingest -------------------------------------------------------- *)

let serve_ingest ~seed ~seconds ~dir () =
  let b = Pipeline.build () in
  Pipeline.report b;
  let model_file, index_file = Pipeline.save_artifacts b ~dir in
  let set = Inputs.ingest_set seed in
  let mats = Array.map (fun m -> (Inputs.fp_key m, m)) set in
  let encode () =
    Array.mapi
      (fun i m -> Inputs.query_frame ~qid:(Printf.sprintf "w%d" i) ~measure:false m)
      set
  in
  let frames = ref [||] in
  let first = Hashtbl.create 16 in
  let measure _ = false in
  let shards = ref [] in
  let tier =
    start_tier (fun k ->
        frames := encode ();
        let frames = !frames in
        let ss =
          List.init 2 (fun s ->
              Tier.serve ~dir ~name:(Printf.sprintf "ingest%d-shard%d" k s)
                ~model_file ~index_file ~domains:1 ~cache_capacity:64)
        in
        List.iter Tier.wait_ready ss;
        let r = Tier.route ~dir ~name:(Printf.sprintf "ingest%d-router" k) ss in
        Tier.wait_ready r;
        shards := ss;
        (* Warm: every working-set matrix once through the router. *)
        let fd = Load.connect r.Tier.endpoint in
        let warm =
          Array.mapi
            (fun qi f ->
              let o, dt = Load.ask fd f in
              { Load.qi; sent = 0.0; done_ = dt; outcome = o })
            frames
        in
        Unix.close fd;
        ignore (check_answers ~mats ~measure ~first warm);
        r :: ss)
  in
  let router = List.hd tier and shards = !shards and frames = !frames in
  Util.log "working set: %d matrices, %.2f MB of frames" (Array.length set)
    (Probes.mib_of_frames frames);
  Fun.protect ~finally:(fun () -> Tier.kill_all tier) @@ fun () ->
  let rng = Rng.create ((seed * 7) + 3) in
  let next () = Some (Rng.int rng (Array.length frames)) in
  let before = Probes.snapshot shards in
  let rcpu0 = Tier.cpu_s router in
  let samples, elapsed =
    Load.run ~conns:nproc ~window:4 ~endpoint:router.Tier.endpoint ~frames ~next
      ~seconds ()
  in
  let rcpu = Tier.cpu_s router -. rcpu0 in
  let after = Probes.snapshot shards in
  latency_metrics samples elapsed;
  Report.set "peak_rss_mib" (hwm tier);
  (* Every router answer equals a direct answer from the home shard. *)
  let ring =
    Serve.Router.Ring.create (List.map (fun (s : Tier.proc) -> s.Tier.endpoint) shards)
  in
  let direct =
    Array.mapi
      (fun qi (key, _) ->
        let home = Serve.Router.Ring.lookup ring (Serve.Router.Ring.routing_key key) in
        let fd = Load.connect home in
        let o, dt = Load.ask fd frames.(qi) in
        Unix.close fd;
        { Load.qi; sent = 0.0; done_ = dt; outcome = o })
      mats
  in
  if !Trace.enabled then begin
    ignore (Probes.server ~before ~after);
    let answered =
      Array.fold_left
        (fun n (s : Load.sample) ->
          match s.Load.outcome with Load.Answer _ -> n + 1 | _ -> n)
        0 samples
    in
    Report.set "serve.router.cpu_ms_per_query"
      (1e3 *. rcpu /. float_of_int (max 1 answered));
    ignore
      (Probes.hop ~router ~ring ~shards
         (Array.mapi (fun i (key, _) -> (key, frames.(i))) mats));
    Probes.pipeline b;
    Probes.tune_sample b mats;
    Probes.nn b mats;
    Probes.wire frames;
    Probes.cache ~dir ~size:(Array.length mats)
      (Array.to_list
         (Array.map
            (fun (key, _) ->
              ( key,
                {
                  Serve.Cache.schedule = Hashtbl.find first (key, false);
                  predicted = 0.0;
                  measured = nan;
                  degraded = false;
                } ))
            mats));
    Probes.artifacts ~model_file ~index_file
  end;
  stop_all tier;
  ignore (check_answers ~mats ~measure ~first direct);
  let speedups = check_answers ~mats ~measure ~first samples in
  Report.set "speedup_vs_csr" (Util.geomean speedups)

(* --- the offline workload's traced probe of the serve layers ------------- *)

let routed_probe ~dir ~model_file ~index_file mats =
  let daemon =
    Tier.serve ~dir ~name:"probe" ~model_file ~index_file ~domains:1
      ~cache_capacity:1024
  in
  Tier.wait_ready daemon;
  let router = Tier.route ~dir ~name:"proberoute" [ daemon ] in
  Fun.protect ~finally:(fun () -> Tier.kill_all [ router; daemon ]) @@ fun () ->
  Tier.wait_ready router;
  let frames =
    Array.map (fun (id, m) -> Inputs.query_frame ~qid:id ~measure:true m) mats
  in
  let before = Probes.snapshot [ daemon ] in
  let sent = ref 0 in
  let next () =
    if !sent < Array.length frames then begin
      incr sent;
      Some (!sent - 1)
    end
    else None
  in
  let rcpu0 = Tier.cpu_s router in
  let samples, _ =
    Load.run ~conns:nproc ~window:4 ~endpoint:router.Tier.endpoint ~frames ~next
      ~seconds:infinity ()
  in
  let rcpu = Tier.cpu_s router -. rcpu0 in
  let after = Probes.snapshot [ daemon ] in
  ignore (Probes.server ~before ~after);
  Report.set "serve.router.cpu_ms_per_query"
    (1e3 *. rcpu /. float_of_int (max 1 (Array.length samples)));
  let ring = Serve.Router.Ring.create [ daemon.Tier.endpoint ] in
  ignore
    (Probes.hop ~router ~ring ~shards:[ daemon ]
       (Array.mapi (fun i (_, m) -> (Inputs.fp_key m, frames.(i))) mats));
  stop_all [ router; daemon ]
