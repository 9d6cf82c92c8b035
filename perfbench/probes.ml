(* Per-layer figures for the traced run, taken from outside: span self
   times, the library's own result fields, deltas of the daemons' stats
   answers and /proc, and short probes that time public functions on the
   workload's own inputs. *)

open Sptensor

let ms s = s *. 1e3
let mib_of_frames frames =
  float_of_int (Array.fold_left (fun a f -> a + String.length f) 0 frames)
  /. 1048576.0

let per name scale =
  let st = Trace.self_times () in
  match Hashtbl.find_opt st name with
  | Some (n, t) when n > 0 -> t /. float_of_int n *. scale
  | _ -> nan

let self name = match Hashtbl.find_opt (Trace.self_times ()) name with
  | Some (_, t) -> t
  | None -> 0.0

let pipeline (b : Pipeline.built) =
  let steps = Pipeline.steps_per_epoch b in
  Report.set "core.dataset.tuples_per_s"
    (float_of_int (Waco.Dataset.total_tuples b.data) /. self "core.dataset");
  Report.set "core.trainer.steps_per_epoch" (float_of_int steps);
  Report.set "core.trainer.epoch_s" (Pipeline.train_epoch_s b);
  Report.set "core.trainer.step_ms"
    (ms (Pipeline.train_epoch_s b) /. float_of_int (max 1 steps));
  Report.set "anns.hnsw.build_s" b.index_build_s;
  Report.set "analysis.asym.rejected_at_build"
    (float_of_int b.index.Waco.Tuner.asym_rejected)

let tuner (rs : Waco.Tuner.result array) =
  let avg f = Util.mean (Array.map f rs) in
  Report.set "core.tuner.feature_ms" (avg (fun r -> ms r.Waco.Tuner.feature_seconds));
  Report.set "core.tuner.search_ms" (avg (fun r -> ms r.Waco.Tuner.search_seconds));
  Report.set "core.tuner.measure_ms" (avg (fun r -> ms r.Waco.Tuner.measure_seconds));
  Report.set "core.tuner.measured_runs_per_query"
    (avg (fun r -> float_of_int r.Waco.Tuner.measured_runs));
  Report.set "anns.hnsw.cost_evals_per_query"
    (avg (fun r -> float_of_int r.Waco.Tuner.cost_evals));
  Report.set "analysis.asym.pruned_per_query"
    (avg (fun r -> float_of_int r.Waco.Tuner.asym_pruned))

(* In-process tunes of a sample of the workload's matrices, for the
   serving workloads whose tuner runs inside the daemon. *)
let tune_sample (b : Pipeline.built) mats =
  Waco.Costmodel.clear_feature_cache b.model;
  Array.map
    (fun (id, m) ->
      let wl = Machine_model.Workload.of_coo ~id m in
      let input = Waco.Extractor.input_of_coo ~id m in
      Trace.span ~qid:id "core.tuner" (fun () ->
          Waco.Tuner.tune b.model Inputs.machine wl input b.index))
    mats
  |> tuner

(* Extractor (single and batched), embedder and HNSW recall on the
   workload's matrices. *)
let nn (b : Pipeline.built) mats =
  let inputs = Array.map (fun (id, m) -> Waco.Extractor.input_of_coo ~id m) mats in
  let n = float_of_int (Array.length inputs) in
  (* Both start cold: the feature cache and the extractor's per-pattern
     coordinate pyramids are dropped first. *)
  Waco.Costmodel.clear_feature_cache b.model;
  Array.iter
    (fun i ->
      ignore (Trace.span "nn.vm.extract" (fun () -> Waco.Costmodel.feature_nocache b.model i)))
    inputs;
  Report.set "nn.vm.extract_ms" (per "nn.vm.extract" 1e3);
  Waco.Costmodel.clear_feature_cache b.model;
  let _, batch_s =
    Util.timed (fun () ->
        Trace.span "nn.vm.extract_batch" (fun () ->
            Waco.Costmodel.feature_batch b.model inputs))
  in
  Report.set "nn.vm.extract_batch_ms_per_item" (ms batch_s /. n);
  let corpus = Waco.Dataset.all_schedules b.data in
  let _, embed_s =
    Util.timed (fun () ->
        Trace.span "nn.vm.embed" (fun () -> Waco.Costmodel.embed b.model corpus))
  in
  Report.set "nn.vm.embed_us_per_schedule"
    (embed_s *. 1e6 /. float_of_int (Array.length corpus));
  (* Recall of the graph walk against an exhaustive scoring of every
     indexed schedule under the same predicted-runtime metric. *)
  let hnsw = b.index.Waco.Tuner.hnsw in
  let k = 10 in
  let recall =
    Array.map
      (fun input ->
        let feature = Waco.Costmodel.feature b.model input in
        let score i =
          Waco.Costmodel.predict_tail b.model ~feature
            ~embedding:hnsw.Anns.Hnsw.nodes.(i).Anns.Hnsw.vec
        in
        let found, _ = Anns.Hnsw.search_by hnsw ~score ~k ~ef:40 () in
        let all =
          Array.init (Anns.Hnsw.size hnsw) (fun i -> (score i, i))
        in
        Array.sort compare all;
        let exact = Array.sub all 0 (min k (Array.length all)) in
        let hits =
          List.length
            (List.filter (fun (_, i) -> Array.exists (fun (_, j) -> i = j) exact) found)
        in
        float_of_int hits /. float_of_int (Array.length exact))
      inputs
  in
  Report.set "anns.hnsw.recall_at_k" (Util.mean recall);
  Waco.Costmodel.clear_feature_cache b.model

(* Frame parse and fingerprint per MB of the workload's own frames. *)
let wire frames =
  let mb = mib_of_frames frames in
  let parse_s = ref 0.0 and fp_s = ref 0.0 in
  Array.iter
    (fun f ->
      match Serve.Protocol.decode_frame f with
      | `Frame (msg, body, _) -> (
          let req, dt =
            Util.timed (fun () ->
                Trace.span "serve.protocol.parse" (fun () ->
                    Serve.Protocol.request_of_frame ~msg body))
          in
          parse_s := !parse_s +. dt;
          match req with
          | Ok (Serve.Protocol.Query { source = Serve.Protocol.Inline { nrows; ncols; entries }; _ }) ->
              let m = Coo.of_triplet_array ~nrows ~ncols entries in
              let _, dt =
                Util.timed (fun () ->
                    Trace.span "serve.fingerprint" (fun () ->
                        Serve.Fingerprint.key (Serve.Fingerprint.of_coo m)))
              in
              fp_s := !fp_s +. dt
          | _ -> ())
      | _ -> ())
    frames;
  Report.set "serve.protocol.parse_ms_per_mb" (ms !parse_s /. mb);
  Report.set "serve.fingerprint.ms_per_mb" (ms !fp_s /. mb)

(* Cache probe and persist at the workload's final cache size. *)
let cache ~dir ~size entries =
  let entries = Array.of_list entries in
  let c =
    Serve.Cache.create ~capacity:(max 1 size) ~model_digest:"bench"
      ~index_digest:"bench" ~machine:Inputs.machine.Machine_model.Machine.name ()
  in
  let n = Array.length entries in
  for i = 0 to size - 1 do
    let key, e = entries.(i mod max 1 n) in
    Serve.Cache.add c (Printf.sprintf "%s#%d" key i) e
  done;
  let probes = 20000 in
  let _, dt =
    Util.timed (fun () ->
        Trace.span "serve.cache.probe" (fun () ->
            for i = 0 to probes - 1 do
              let key, _ = entries.(i mod max 1 n) in
              ignore (Serve.Cache.find c (Printf.sprintf "%s#%d" key (i mod max 1 size)))
            done))
  in
  Report.set "serve.cache.probe_us" (dt *. 1e6 /. float_of_int probes);
  let file = Filename.concat dir "probe.cache" in
  let saves =
    Array.init 3 (fun _ ->
        snd (Util.timed (fun () ->
                 Trace.span "serve.cache.save" (fun () -> Serve.Cache.save c file))))
  in
  Report.set "serve.cache.save_ms" (ms (Util.median saves))

let artifacts ~model_file ~index_file =
  let loads =
    Array.init 3 (fun _ ->
        snd (Util.timed (fun () ->
                 Trace.span "robust.artifact_load" (fun () ->
                     Pipeline.load_artifacts ~model_file ~index_file))))
  in
  Report.set "robust.artifact_load_ms" (ms (Util.median loads))

(* Deltas of the shards' stats over the timed window, per answer. *)
type snapshot = { json : string list; cpu : float; rss : float }

let snapshot procs =
  {
    json = List.map Tier.stats procs;
    cpu = Util.sum (Array.of_list (List.map Tier.cpu_s procs));
    rss = Util.sum (Array.of_list (List.map Tier.rss_mib procs));
  }

let server ~before ~after =
  let total s name = Util.sum (Array.of_list (List.map (fun j -> Util.json_number j name) s.json)) in
  let d name = total after name -. total before name in
  let answers = Float.max 1.0 (d "answers") in
  Report.set "serve.server.cpu_ms_per_query" (ms (after.cpu -. before.cpu) /. answers);
  Report.set "serve.server.parse_ms" (ms (d "parse_s") /. answers);
  Report.set "serve.server.extract_ms" (ms (d "extract_s") /. answers);
  Report.set "serve.server.traverse_ms" (ms (d "traverse_s") /. answers);
  Report.set "serve.server.measure_ms" (ms (d "measure_s") /. answers);
  Report.set "serve.server.phase_b_mean_batch"
    (d "phase_b_misses" /. Float.max 1.0 (d "phase_b_batches"));
  Report.set "serve.server.hit_ratio"
    (d "cache_hits" /. Float.max 1.0 (d "cache_hits" +. d "cache_misses"));
  Report.set "serve.server.rss_growth_mib" (after.rss -. before.rss);
  total after "cache_size"

(* Router hop: the same hits sent one at a time through the router and
   straight to their home shard, alternating. *)
let hop ~router ~ring ~shards frames =
  let via = Load.connect router.Tier.endpoint in
  let direct =
    List.map (fun (s : Tier.proc) -> (s.Tier.endpoint, Load.connect s.Tier.endpoint)) shards
  in
  let rt = ref [] and dt = ref [] in
  let cpu0 = Tier.cpu_s router in
  for _ = 1 to 5 do
    Array.iter
      (fun (key, frame) ->
        let home = List.assoc (Serve.Router.Ring.lookup ring (Serve.Router.Ring.routing_key key)) direct in
        let _, t = Load.ask via frame in
        rt := t :: !rt;
        let _, t = Load.ask home frame in
        dt := t :: !dt)
      frames
  done;
  let cpu = Tier.cpu_s router -. cpu0 in
  Unix.close via;
  List.iter (fun (_, fd) -> Unix.close fd) direct;
  let med l = Util.median (Array.of_list l) in
  Report.set "serve.router.hop_ms" (ms (med !rt -. med !dt));
  cpu /. float_of_int (List.length !rt)
