(* What one run reports: end-to-end metrics (untraced runs), per-layer
   metrics (traced runs), operation counts and the output checks. *)

let e2e_names =
  [ ("setup_s", "s"); ("latency_p50_ms", "ms");
    ("throughput_qps", "1/s"); ("speedup_vs_csr", "x");
    ("peak_rss_mib", "MiB"); ("collect_s", "s"); ("valid_acc", "ratio") ]

let layer_names =
  [ ("sptensor.gen_s", "s"); ("machine.costsim_us_per_run", "us");
    ("core.dataset.tuples_per_s", "1/s"); ("core.trainer.step_ms", "ms");
    ("core.trainer.steps_per_epoch", "count"); ("core.trainer.epoch_s", "s"); ("nn.vm.extract_ms", "ms");
    ("nn.vm.extract_batch_ms_per_item", "ms");
    ("nn.vm.embed_us_per_schedule", "us"); ("anns.hnsw.build_s", "s");
    ("anns.hnsw.cost_evals_per_query", "count");
    ("anns.hnsw.recall_at_k", "ratio");
    ("analysis.asym.pruned_per_query", "count");
    ("analysis.asym.rejected_at_build", "count");
    ("core.tuner.feature_ms", "ms"); ("core.tuner.search_ms", "ms");
    ("core.tuner.measure_ms", "ms");
    ("core.tuner.measured_runs_per_query", "count");
    ("serve.protocol.parse_ms_per_mb", "ms/MB");
    ("serve.fingerprint.ms_per_mb", "ms/MB");
    ("serve.server.cpu_ms_per_query", "ms"); ("serve.server.parse_ms", "ms");
    ("serve.server.extract_ms", "ms"); ("serve.server.traverse_ms", "ms");
    ("serve.server.measure_ms", "ms");
    ("serve.server.phase_b_mean_batch", "count");
    ("serve.server.hit_ratio", "ratio"); ("serve.cache.probe_us", "us");
    ("serve.cache.save_ms", "ms"); ("serve.router.hop_ms", "ms");
    ("serve.router.cpu_ms_per_query", "ms");
    ("serve.server.rss_growth_mib", "MiB");
    ("robust.artifact_load_ms", "ms") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v

let attempted = ref 0
let failed = ref 0
let checks = Checks.create ()

let attempt ok =
  incr attempted;
  if not ok then incr failed

(* The last line of standard output.  Every output check counts as one
   operation beside the queries, so a failed check is a failed operation. *)
let print ~traced =
  let names = if traced then layer_names else e2e_names in
  let metric (name, unit) =
    let v =
      match Hashtbl.find_opt values name with
      | Some v when Float.is_finite v -> v
      | Some _ | None ->
          Util.log "metric %s was not measured" name;
          0.0
    in
    Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit
  in
  let correct = checks.Checks.failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (!attempted + checks.Checks.passed + checks.Checks.failed)
    (!failed + checks.Checks.failed)
    (String.concat ", " (List.map metric names))
