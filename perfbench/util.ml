(* Small helpers shared by the benchmark's modules: clocks, order
   statistics, JSON number scraping and the /proc readings taken of the
   daemons the benchmark starts. *)

let now = Robust.mono_now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks ("inclusive" method). *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.round (floor pos)) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then nan
  else exp (mean (Array.map log a))

let sum a = Array.fold_left ( +. ) 0.0 a

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* --- files ------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- /proc --------------------------------------------------------------- *)

(* A "Vm...:" line of /proc/<pid>/status, in MiB. *)
let proc_status_mib pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | text ->
      let prefix = field ^ ":" in
      let value = ref nan in
      List.iter
        (fun line ->
          if String.starts_with ~prefix line then
            Scanf.sscanf
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
              " %d kB"
              (fun kb -> value := float_of_int kb /. 1024.0))
        (String.split_on_char '\n' text);
      !value

let self_hwm_mib () = proc_status_mib "self" "VmHWM"

(* utime + stime of a process, in seconds (fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name). *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | text -> (
      let close = String.rindex text ')' in
      let rest = String.sub text (close + 2) (String.length text - close - 2) in
      match String.split_on_char ' ' rest with
      | _state :: fields -> (
          (* fields now starts at field 4 (ppid); utime is field 14 *)
          match List.filteri (fun i _ -> i = 10 || i = 11) fields with
          | [ u; s ] -> (float_of_string u +. float_of_string s) /. 100.0 (* USER_HZ *)
          | _ -> nan)
      | [] -> nan)

(* --- JSON scraping of the daemons' stats answers ------------------------ *)

(* The number stored under [name] in a daemon's stats answer. *)
let json_number text name =
  let needle = "\"" ^ name ^ "\":" in
  let nlen = String.length needle and tlen = String.length text in
  let rec find i =
    if i + nlen > tlen then nan
    else if String.sub text i nlen = needle then begin
      let j = ref (i + nlen) in
      while !j < tlen && text.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < tlen
        && (match text.[!k] with
           | '0' .. '9' | '-' | '.' | 'e' | 'E' | '+' -> true
           | _ -> false)
      do
        incr k
      done;
      Option.value ~default:nan (float_of_string_opt (String.sub text !j (!k - !j)))
    end
    else find (i + 1)
  in
  find 0
