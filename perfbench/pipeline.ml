(* The paper's offline pipeline as users run it: collect (generate the
   corpus, then Dataset.of_matrices, like `waco collect`), train, build the
   HNSW index over the training schedules.  Every workload runs it; the serving
   workloads then serve the model it trained.  It runs on one domain, as
   the CLI does by default: parallel phases on a 2-CPU box swung epoch
   times by a third between identical runs. *)

open Sptensor

let schedules_per_matrix = 32
let epochs = 8
let index_builds = 3

type built = {
  data : Waco.Dataset.t;
  model : Waco.Costmodel.t;
  curve : Waco.Trainer.curve;
  index : Waco.Tuner.index;
  collect_s : float;
  epoch_s : float array;
  index_build_s : float;  (** mean over [index_builds] identical builds *)
}

let index_analyzer () =
  Asym.Analyzer.create ~algo:Inputs.algo
    (Asym.Analyzer.default_stats ~algo:Inputs.algo ~dims:[| 1024; 1024 |] ())

let build () =
  let rng = Rng.create Inputs.training_seed in
  let data, collect_s =
    Util.timed (fun () ->
        let mats = Inputs.corpus () in
        Trace.span "core.dataset" (fun () ->
            Waco.Dataset.of_matrices rng Inputs.machine Inputs.algo mats
              ~schedules_per_matrix ~valid_fraction:0.3))
  in
  let model = Waco.Costmodel.create rng Inputs.algo in
  (* Trainer.train logs once per finished epoch: those instants split the
     run into epoch times. *)
  let marks = ref [] in
  let log msg =
    if String.starts_with ~prefix:"epoch" msg then marks := Util.now () :: !marks
  in
  let t0 = Util.now () in
  let curve =
    Trace.span "core.trainer" (fun () ->
        Waco.Trainer.train ~lr:2e-3 ~log rng model data ~epochs)
  in
  let bounds = Array.of_list (t0 :: List.rev !marks) in
  let epoch_s =
    Array.init (Array.length bounds - 1) (fun e -> bounds.(e + 1) -. bounds.(e))
  in
  let corpus = Waco.Dataset.all_schedules data in
  let asym = index_analyzer () in
  let builds =
    Array.init index_builds (fun _ ->
        Util.timed (fun () ->
            Trace.span "anns.hnsw.build" (fun () ->
                Waco.Tuner.build_index ~asym
                  (Rng.create (Inputs.training_seed + 1))
                  model corpus)))
  in
  Util.log "pipeline: collect %.2f s, %d epochs %.2f s, index of %d %.3f s"
    collect_s epochs (Util.sum epoch_s)
    (fst builds.(0)).Waco.Tuner.corpus_size
    (Util.mean (Array.map snd builds));
  {
    data;
    model;
    curve;
    index = fst builds.(index_builds - 1);
    collect_s;
    epoch_s;
    index_build_s = Util.mean (Array.map snd builds);
  }

(* Mean epoch time after the first, which also builds every pattern's
   coordinate pyramids.  A mean over seconds of training: single sub-second
   epochs on a 2-CPU box swing by a third. *)
let train_epoch_s b =
  Util.mean (Array.sub b.epoch_s 1 (Array.length b.epoch_s - 1))

let valid_acc b =
  let a = b.curve.Waco.Trainer.valid_acc in
  a.(Array.length a - 1)

(* Steps in one epoch: one per training sample that has a ranking pair. *)
let steps_per_epoch b =
  Array.fold_left
    (fun n (s : Waco.Dataset.sample) ->
      if Array.length s.Waco.Dataset.schedules >= 2 then n + 1 else n)
    0 b.data.Waco.Dataset.train

(* The pipeline's end-to-end metrics and its checks: the last epoch's
   training loss is below the first's, and validation accuracy is above
   chance. *)
let report b =
  Report.set "collect_s" b.collect_s;
  Report.set "valid_acc" (valid_acc b);
  let loss = b.curve.Waco.Trainer.train_loss in
  Checks.expect Report.checks
    (loss.(Array.length loss - 1) < loss.(0))
    "final training loss %g is not below the first epoch's %g"
    loss.(Array.length loss - 1)
    loss.(0);
  Checks.expect Report.checks (valid_acc b > 0.5)
    "valid_acc %g is not above 0.5" (valid_acc b)

let save_artifacts b ~dir =
  let model_file = Filename.concat dir "model.waco" in
  let index_file = Filename.concat dir "index.waco" in
  Waco.Costmodel.save b.model model_file;
  Waco.Tuner.save_index b.index index_file;
  (model_file, index_file)

(* Model and index load, as a daemon does at start. *)
let load_artifacts ~model_file ~index_file =
  let model = Waco.Costmodel.create (Rng.create 1) Inputs.algo in
  Waco.Costmodel.load model model_file;
  ignore (Waco.Tuner.load_index (Rng.create 1) ~algo:Inputs.algo index_file)
