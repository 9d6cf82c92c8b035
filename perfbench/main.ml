(* perfbench: the repository's benchmark.  Runs one named workload from a
   seed and prints, as the last line of standard output, one JSON object
   with the output checks' verdict, the operations attempted and failed,
   and the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  See README.md beside this file. *)

let usage =
  "main.exe --workload offline|serve-miss|serve-ingest --seed N --seconds S \
   --trace 0|1 [--waco PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report layers");
      ("--waco", Arg.Set_string Tier.waco, "PATH the built waco binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  Trace.enabled := traced;
  (* A daemon that dies mid-write must surface as EPIPE on its connection,
     a failed operation, not kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Util.log "box: nproc=%d ocaml=%s commit=%s" Serving.nproc Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"));
  Util.log "workload=%s seed=%d seconds=%g trace=%d" !workload !seed !seconds
    !trace;
  if not (Sys.file_exists !Tier.waco) then begin
    Util.log "no waco binary at %s" !Tier.waco;
    exit 2
  end;
  let run =
    match !workload with
    | "offline" -> Offline.run
    | "serve-miss" -> Serving.serve_miss
    | "serve-ingest" -> Serving.serve_ingest
    | w ->
        Util.log "unknown workload %S (%s)" w usage;
        exit 2
  in
  let out = Filename.concat "perfbench" "out" in
  let dir = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Util.mkdir_p dir;
  (match run ~seed:!seed ~seconds:!seconds ~dir () with
  | () -> Util.rm_rf dir
  | exception e ->
      Util.log "run failed: %s" (Printexc.to_string e);
      Util.rm_rf dir;
      exit 1);
  Checks.expect Report.checks
    (not (Sys.file_exists dir))
    "temporary directory %s was left behind" dir;
  if traced then begin
    Report.set "sptensor.gen_s" (Probes.self "sptensor.gen");
    Report.set "machine.costsim_us_per_run" (Probes.per "machine.costsim" 1e6);
    let file =
      Filename.concat out (Printf.sprintf "spans-%s-%d.json" !workload !seed)
    in
    Trace.write file;
    Util.log "spans written to %s" file;
    (* The traced run's own end-to-end figures, for the overhead against
       the untraced runs. *)
    Util.log "traced end-to-end: %s"
      (String.concat " "
         (List.map
            (fun (n, _) ->
              Printf.sprintf "%s=%.6g" n
                (Option.value ~default:nan (Hashtbl.find_opt Report.values n)))
            Report.e2e_names))
  end;
  Report.print ~traced
