(* The serving daemons, started as separate processes from the built
   `waco` binary: spawn, wait until a ping answers, read stats and /proc
   figures, shut down through the protocol and reap.  Each run keeps its
   sockets, caches and logs in one temporary directory under the
   checkout, removed at the end. *)

type proc = { pid : int; name : string; endpoint : string; log : string }

let waco = ref "_build/default/bin/waco_cli.exe"

let spawn ~dir ~name args =
  let endpoint = Filename.concat dir (name ^ ".sock") in
  let log = Filename.concat dir (name ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list ((!waco :: args) @ [ "--listen"; endpoint ]) in
  let pid = Unix.create_process !waco argv devnull out out in
  Unix.close out;
  Unix.close devnull;
  { pid; name; endpoint; log }

let exited p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let with_client ?(timeout_s = 2.0) endpoint f =
  let c = Serve.Client.connect ~timeout_s endpoint in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let wait_ready ?(timeout_s = 120.0) p =
  let deadline = Util.now () +. timeout_s in
  let rec go () =
    let up =
      Sys.file_exists p.endpoint
      && (try with_client p.endpoint Serve.Client.ping
          with Unix.Unix_error _ | Failure _ -> false)
    in
    if up then ()
    else if exited p then
      failwith
        (Printf.sprintf "%s exited during start-up:\n%s" p.name
           (try Util.read_file p.log with Sys_error _ -> ""))
    else if Util.now () > deadline then
      failwith (p.name ^ " did not answer a ping in time")
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let stats p =
  match with_client ~timeout_s:10.0 p.endpoint Serve.Client.stats with
  | Ok json -> json
  | Error e -> failwith (p.name ^ ": stats failed: " ^ e)

let rss_mib p = Util.proc_status_mib (string_of_int p.pid) "VmRSS"
let hwm_mib p = Util.proc_status_mib (string_of_int p.pid) "VmHWM"
let cpu_s p = Util.proc_cpu_s p.pid

(* Shut down through the protocol and reap.  [false] when the daemon had
   to be killed or left its socket behind: a leftover fails the run. *)
let stop p =
  let asked =
    try with_client ~timeout_s:5.0 p.endpoint Serve.Client.shutdown
    with Unix.Unix_error _ | Failure _ -> false
  in
  let deadline = Util.now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill p.pid Sys.sigkill;
        ignore (Unix.waitpid [] p.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let clean = wait () in
  if not clean then Util.log "%s did not stop cleanly:\n%s" p.name
      (try Util.read_file p.log with Sys_error _ -> "");
  clean && asked && not (Sys.file_exists p.endpoint)

(* Kill whatever is still running; used on the error path only. *)
let kill_all procs =
  List.iter
    (fun p ->
      if not (exited p) then begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ()
      end)
    procs

let serve ~dir ~name ~model_file ~index_file ~domains ~cache_capacity =
  spawn ~dir ~name
    [ "serve"; "--kernel"; Waco.Kernel.name Inputs.kernel; "--model";
      model_file; "--index"; index_file; "--cache";
      Filename.concat dir (name ^ ".cache"); "--cache-capacity";
      string_of_int cache_capacity; "--domains"; string_of_int domains ]

let route ~dir ~name shards =
  spawn ~dir ~name
    ("route" :: List.concat_map (fun s -> [ "--shard"; s.endpoint ]) shards)
