(* Spans recorded from the benchmark's own files around each call into a
   layer: name, start, end, parent span and query id.  Kept in memory while
   the run lasts, written out at exit and reduced to self times — a span's
   duration minus what its child spans cover.  Off (the default) a span is
   a plain call, so the untraced run pays nothing for it. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  qid : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ?(qid = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; qid; t0 = Util.now (); t1 = nan } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Util.now ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* A span whose interval was measured elsewhere (a query in flight on a
   socket, which overlaps its neighbours and so has no nesting). *)
let record ?(qid = "") name t0 t1 =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    spans := { id; name; parent = -1; qid; t0; t1 } :: !spans
  end

(* Name -> (span count, summed self seconds). *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. self))
    !spans;
  acc

let write path =
  Util.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"qid\": %S, \
             \"start_s\": %.9f, \"end_s\": %.9f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.qid s.t0 s.t1)
        (List.rev !spans);
      output_string oc "]\n")
