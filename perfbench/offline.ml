(* offline: the paper's pipeline in one process — collect, train, index,
   then a timed window of measured Tuner.tune calls over held-out
   matrices.  No serve layer is involved. *)

open Sptensor

type held = {
  id : string;
  coo : Coo.t;
  wl : Machine_model.Workload.t;
  input : Waco.Extractor.input;
}

let prepare seed =
  List.map
    (fun (id, coo) ->
      {
        id;
        coo;
        wl = Machine_model.Workload.of_coo ~id coo;
        input = Waco.Extractor.input_of_coo ~id coo;
      })
    (Inputs.heldout seed)
  |> Array.of_list

let setups = 3

let run ~seed ~seconds ~dir () =
  let preps = Array.init setups (fun _ -> Util.timed (fun () -> prepare seed)) in
  let held = fst preps.(setups - 1) in
  Report.set "setup_s" (Util.median (Array.map snd preps));
  let b = Pipeline.build () in
  Pipeline.report b;
  (* The timed window: whole passes over the held-out set, each pass
     starting from a cold feature cache as a fresh `waco tune` would. *)
  let lat = ref [] and results = ref [] in
  let t0 = Util.now () in
  while Util.now () -. t0 < seconds do
    Waco.Costmodel.clear_feature_cache b.model;
    Array.iteri
      (fun i h ->
        let r, dt =
          Util.timed (fun () ->
              Trace.span ~qid:h.id "core.tuner" (fun () ->
                  Waco.Tuner.tune b.model Inputs.machine h.wl h.input
                    b.index))
        in
        lat := dt :: !lat;
        results := (i, r) :: !results)
      held
  done;
  let elapsed = Util.now () -. t0 in
  let lat = Array.of_list !lat in
  Report.set "latency_p50_ms" (1e3 *. Util.quantile lat 0.5);
  Util.log "%d tunes, p99 %.1f ms" (Array.length lat)
    (1e3 *. Util.quantile lat 0.99);
  Report.set "throughput_qps" (float_of_int (Array.length lat) /. elapsed);
  Report.set "peak_rss_mib" (Util.self_hwm_mib ());
  (* Checks: the first answer per matrix in full, later passes must agree
     with it. *)
  let results = Array.of_list (List.rev !results) in
  let first = Hashtbl.create 64 in
  let speedups = ref [] in
  Array.iter
    (fun (i, (r : Waco.Tuner.result)) ->
      let h = held.(i) in
      Report.attempt (not r.Waco.Tuner.degraded);
      let key = Schedule.Superschedule.key r.Waco.Tuner.best in
      match Hashtbl.find_opt first i with
      | Some k0 ->
          Checks.expect Report.checks (k0 = key)
            "%s: tuned to %s, earlier to %s" h.id key k0
      | None ->
          Hashtbl.add first i key;
          let what = h.id in
          let text = Schedule.Sched_io.serialize r.Waco.Tuner.best in
          (match Checks.schedule Report.checks ~what text with
          | Some s -> Checks.kernel Report.checks ~what s h.coo
          | None -> ());
          let topk = List.map snd r.Waco.Tuner.topk in
          Checks.expect Report.checks
            (topk <> []
            && Float.equal r.Waco.Tuner.best_measured
                 (List.fold_left Float.min infinity topk))
            "%s: best_measured %g is not the minimum of its measured top-k" what
            r.Waco.Tuner.best_measured;
          List.iter
            (fun (s, m) -> Checks.measured Report.checks ~what h.wl s m)
            r.Waco.Tuner.topk;
          speedups := Checks.speedup h.wl r.Waco.Tuner.best :: !speedups)
    results;
  Report.set "speedup_vs_csr" (Util.geomean (Array.of_list !speedups));
  if !Trace.enabled then begin
    Probes.pipeline b;
    Probes.tuner (Array.map snd results);
    let mats = Array.map (fun h -> (h.id, h.coo)) held in
    Probes.nn b mats;
    let frames =
      Array.map (fun h -> Inputs.query_frame ~qid:h.id ~measure:true h.coo) held
    in
    Probes.wire frames;
    Probes.cache ~dir ~size:(Array.length held)
      (Array.to_list
         (Array.map
            (fun (i, (r : Waco.Tuner.result)) ->
              ( Inputs.fp_key held.(i).coo,
                {
                  Serve.Cache.schedule = Schedule.Sched_io.serialize r.Waco.Tuner.best;
                  predicted = r.Waco.Tuner.best_predicted;
                  measured = r.Waco.Tuner.best_measured;
                  degraded = false;
                } ))
            results));
    let model_file, index_file = Pipeline.save_artifacts b ~dir in
    Probes.artifacts ~model_file ~index_file;
    (* The serve layers this workload does not otherwise reach: its own
       model served by one daemon behind a router, fed its held-out
       matrices. *)
    Serving.routed_probe ~dir ~model_file ~index_file
      (Array.map (fun h -> (h.id, h.coo)) held)
  end
