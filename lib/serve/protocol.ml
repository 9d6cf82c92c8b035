(* The `waco serve` wire protocol: length-prefixed, versioned frames over a
   Unix-domain socket.

   Every frame is a 10-byte header followed by the payload:

     offset 0..3   magic "WSRV"
     offset 4      protocol version (this build speaks 1)
     offset 5      message type
     offset 6..9   payload length, big-endian unsigned 32-bit

   The decoder is total: any byte sequence yields [`Frame]/[`Need]/[`Bad],
   never an exception, so a malicious or truncated client can at worst get
   its own connection dropped.  Payload bodies are line-oriented key=value
   text (the repo's house style for artifacts), parsed with the same
   no-exceptions discipline. *)

let magic = "WSRV"
let version = 1

(* Largest payload a peer may send: bounds a hostile length field before any
   allocation happens.  16 MiB fits an inline matrix of ~500k nonzeros. *)
let max_payload = 16 * 1024 * 1024

let header_bytes = 10

(* --- message types (one byte on the wire) --- *)

let msg_query = 1
let msg_stats = 2
let msg_ping = 3
let msg_shutdown = 4
let msg_answer = 129
let msg_stats_json = 130
let msg_pong = 131
let msg_bye = 132
let msg_busy = 133
let msg_error = 192

(* --- framing --- *)

let encode_frame ~msg body =
  let n = String.length body in
  if n > max_payload then invalid_arg "Protocol.encode_frame: payload too large";
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr (msg land 0xFF));
  Bytes.set b 6 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 7 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 8 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 9 (Char.chr (n land 0xFF));
  Bytes.blit_string body 0 b header_bytes n;
  Bytes.unsafe_to_string b

type progress =
  [ `Frame of int * string * int  (** (msg type, body, bytes consumed) *)
  | `Need of int  (** incomplete; at least this many more bytes *)
  | `Bad of string  (** unrecoverable framing damage; drop the connection *)
  ]

(* Decode the frame starting at [pos] among the [have] bytes of [b] there.
   Total like the rest of the decoder: any bytes give [`Frame]/[`Need]/
   [`Bad]; only the frame's body is copied out. *)
let decode_frame_at (b : Bytes.t) ~pos ~len:have : progress =
  let magic_ok n =
    let rec go i = i >= n || (Bytes.get b (pos + i) = magic.[i] && go (i + 1)) in
    go 0
  in
  let byte i = Char.code (Bytes.get b (pos + i)) in
  if have < header_bytes then
    (* Reject a wrong magic as soon as the prefix can't match, so garbage
       connections die on their first bytes rather than stalling forever. *)
    if not (magic_ok (min have 4)) then `Bad "bad magic"
    else `Need (header_bytes - have)
  else if not (magic_ok 4) then `Bad "bad magic"
  else
    let v = byte 4 in
    if v <> version then `Bad (Printf.sprintf "protocol version %d (this build speaks %d)" v version)
    else
      let msg = byte 5 in
      let len = (byte 6 lsl 24) lor (byte 7 lsl 16) lor (byte 8 lsl 8) lor byte 9 in
      if len > max_payload then
        `Bad (Printf.sprintf "declared payload of %d bytes exceeds the %d limit" len max_payload)
      else if have < header_bytes + len then `Need (header_bytes + len - have)
      else `Frame (msg, Bytes.sub_string b (pos + header_bytes) len, header_bytes + len)

let decode_frame (buf : string) : progress =
  decode_frame_at (Bytes.unsafe_of_string buf) ~pos:0 ~len:(String.length buf)

(* One connection's receive buffer, decoded in place at a cursor, so an
   N-byte frame costs O(N) to receive rather than re-copying the backlog on
   every read.  The storage compacts only once the consumed prefix passes
   half of it (or the tail is out of room), so each byte moves at most once;
   once a header announces a frame's size, growth steps through
   [size / 4^j] (copies total about a third of the frame, and a header
   announcing 16 MiB reserves a small multiple of what arrived, not the
   16 MiB); a drained buffer past [keep_bytes] is released.  [copied]
   counts every byte written into the storage. *)
module Inbuf = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* cursor: the first unconsumed byte *)
    mutable stop : int;  (* one past the last received byte *)
    mutable want : int;  (* size of the frame at the cursor, once known *)
    mutable copied : int;
  }

  let initial_bytes = 1024
  let keep_bytes = 65536

  let create () =
    { buf = Bytes.create initial_bytes; start = 0; stop = 0; want = 0; copied = 0 }

  let length t = t.stop - t.start
  let copied t = t.copied

  let move t dst =
    let live = length t in
    Bytes.blit t.buf t.start dst 0 live;
    t.copied <- t.copied + live;
    t.buf <- dst;
    t.start <- 0;
    t.stop <- live

  (* Room for [n] more bytes at [stop]. *)
  let reserve t n =
    let cap = Bytes.length t.buf in
    if t.stop + n > cap then begin
      let need = length t + n in
      if need <= cap then move t t.buf
      else
        (* Double — but once a header has announced the frame's size, step
           through [want / 4^j], so the last growth lands on it exactly. *)
        let floor = max need (2 * cap) in
        let rec fit c = if c / 4 >= floor then fit (c / 4) else c in
        move t (Bytes.create (if t.want > floor then fit t.want else floor))
    end

  let add t src off n =
    reserve t n;
    Bytes.blit src off t.buf t.stop n;
    t.copied <- t.copied + n;
    t.stop <- t.stop + n

  let consume t n =
    t.start <- t.start + n;
    t.want <- 0;
    if t.start = t.stop then begin
      t.start <- 0;
      t.stop <- 0;
      if Bytes.length t.buf > keep_bytes then t.buf <- Bytes.create initial_bytes
    end
    else if t.start > Bytes.length t.buf / 2 then move t t.buf

  let next t : progress =
    match decode_frame_at t.buf ~pos:t.start ~len:(length t) with
    | `Frame (_, _, consumed) as f ->
        consume t consumed;
        f
    | `Need k as r ->
        t.want <- length t + k;
        r
    | `Bad _ as r -> r
end

(* --- request bodies --- *)

type source =
  | Path of string  (** a MatrixMarket file the daemon can read *)
  | Inline of { nrows : int; ncols : int; entries : (int * int * float) array }

type query = {
  qid : string;
  source : source;
  measure : bool;
  deadline_ms : int;  (* 0 = no deadline; omitted on the wire when 0 *)
  kernel : Waco.Kernel.t option;
      (* None = omitted on the wire: a pre-kernel client, served the daemon's
         default slot.  An unrecognized kernel name is a decode Error, never
         a silent default. *)
}

type request = Query of query | Stats | Ping | Shutdown

(* Bound on inline entries independent of byte size, so a tiny frame cannot
   declare a huge entry count and stall the parser. *)
let max_inline_nnz = 1_000_000

(* Bound on a declared deadline so arithmetic on arrival + deadline can
   never overflow or go absurd: one hour. *)
let max_deadline_ms = 3_600_000

let encode_query (q : query) =
  let buf =
    Buffer.create
      (match q.source with
      (* Entry lines run ~26 bytes ("r c " plus a %.17g float); sizing the
         buffer up front keeps the encoder from doubling-and-copying its way
         through a large inline matrix. *)
      | Inline { entries; _ } -> 64 + (32 * Array.length entries)
      | Path _ -> 256)
  in
  if String.contains q.qid '\n' then invalid_arg "Protocol.encode_query: id with newline";
  Printf.bprintf buf "id=%s\n" q.qid;
  Printf.bprintf buf "measure=%d\n" (if q.measure then 1 else 0);
  (match q.kernel with
  | Some k -> Printf.bprintf buf "kernel=%s\n" (Waco.Kernel.name k)
  | None -> ());
  if q.deadline_ms > 0 then Printf.bprintf buf "deadline_ms=%d\n" q.deadline_ms;
  (match q.source with
  | Path p ->
      if String.contains p '\n' then invalid_arg "Protocol.encode_query: path with newline";
      Printf.bprintf buf "source=path\npath=%s\n" p
  | Inline { nrows; ncols; entries } ->
      Printf.bprintf buf "source=inline\ndims=%d %d\nnnz=%d\n" nrows ncols
        (Array.length entries);
      (* The entry-line hot loop: [string_of_int] coordinates and a "%h"
         hex-float value — bit-exact like the old "%.17g" (the decoder's
         [float_of_string] accepts both grammars) but formatted by mantissa
         bit manipulation instead of a ~600ns decimal conversion. *)
      Array.iter
        (fun (r, c, v) ->
          Buffer.add_string buf (string_of_int r);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int c);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Printf.sprintf "%h" v);
          Buffer.add_char buf '\n')
        entries);
  Buffer.contents buf

let request_to_frame = function
  | Query q -> encode_frame ~msg:msg_query (encode_query q)
  | Stats -> encode_frame ~msg:msg_stats ""
  | Ping -> encode_frame ~msg:msg_ping ""
  | Shutdown -> encode_frame ~msg:msg_shutdown ""

(* key=value line split; Error for a line without '='. *)
let kv line =
  match String.index_opt line '=' with
  | Some i ->
      Ok (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> Error (Printf.sprintf "malformed line %S (expected key=value)" line)

let ( let* ) r f = Result.bind r f

(* A query body is scanned in one forward pass over the raw string instead
   of being split into a line list: on the serving hot path an inline query
   is mostly entry lines ("r c v"), and the split-filter-split pipeline
   allocated three short-lived lists per entry.  Semantics are unchanged:
   empty lines are skipped (and not counted against nnz), the header ends at
   the first non-empty line without '=', duplicate header keys resolve to
   the last occurrence, and entry lines are strict single-space
   three-field records. *)

(* End of the line starting at [i]: the next '\n', or the end of the body. *)
let line_end body i =
  match String.index_from_opt body i '\n' with
  | Some j -> j
  | None -> String.length body

(* Count the non-empty lines from [i] to the end of the body. *)
let count_lines body i =
  let n = String.length body in
  let rec go acc i =
    if i >= n then acc
    else
      let j = line_end body i in
      go (if j = i then acc else acc + 1) (j + 1)
  in
  go 0 i

(* Coordinate token [i, j): the common shape — a plain run of at most 18
   decimal digits (what the encoder emits, and short enough that the
   accumulator cannot overflow) — parses inline without a substring; any
   other shape falls back to [int_of_string_opt] on the substring, so the
   accepted grammar ("0x1f", "1_000", "+3"...) is exactly the stdlib's.
   Returns a negative sentinel on failure: the caller's [>= 0] bounds check
   rejects it just as it rejected a parsed negative before. *)
let parse_coord body i j =
  let len = j - i in
  if len >= 1 && len <= 18 then begin
    let v = ref 0 in
    let k = ref i in
    let ok = ref true in
    while !ok && !k < j do
      let c = Char.code (String.unsafe_get body !k) - Char.code '0' in
      if c >= 0 && c <= 9 then begin
        v := (!v * 10) + c;
        incr k
      end
      else ok := false
    done;
    if !ok then !v
    else
      match int_of_string_opt (String.sub body i len) with
      | Some v -> v
      | None -> min_int
  end
  else
    match int_of_string_opt (String.sub body i len) with
    | Some v -> v
    | None -> min_int

(* Parse one entry line [i, j): "r c v", exactly two spaces, the same field
   boundaries [String.split_on_char ' '] produced (so "1  2 3" and trailing
   spaces fail identically); the value goes through [float_of_string_opt] on
   the substring (exact stdlib rounding and grammar).  [store] receives the
   validated triple; any malformation answers the old "bad entry" message. *)
let parse_entry body i j ~nrows ~ncols ~store =
  let bad () = Error (Printf.sprintf "bad entry %S" (String.sub body i (j - i))) in
  match String.index_from_opt body i ' ' with
  | Some s1 when s1 < j -> (
      match String.index_from_opt body (s1 + 1) ' ' with
      | Some s2 when s2 < j -> (
          match String.index_from_opt body (s2 + 1) ' ' with
          | Some s3 when s3 < j -> bad ()
          | _ ->
              let r = parse_coord body i s1 in
              let c = parse_coord body (s1 + 1) s2 in
              if r >= 0 && r < nrows && c >= 0 && c < ncols then
                match
                  float_of_string_opt (String.sub body (s2 + 1) (j - s2 - 1))
                with
                | Some v when Float.is_finite v ->
                    store r c v;
                    Ok ()
                | _ -> bad ()
              else bad ())
      | _ -> bad ())
  | _ -> bad ()

let decode_query body : (query, string) result =
  let n = String.length body in
  (* Header phase: key=value lines until the first non-empty line without
     '=' (where the entry lines start).  Fields accumulate most-recent
     first, so [List.assoc_opt] resolves duplicates to the last occurrence
     exactly as before. *)
  let rec header acc i =
    if i >= n then Ok (acc, n)
    else
      let j = line_end body i in
      if j = i then header acc (j + 1)
      else
        match String.index_from_opt body i '=' with
        | Some e when e < j ->
            header
              ((String.sub body i (e - i), String.sub body (e + 1) (j - e - 1))
              :: acc)
              (j + 1)
        | _ -> Ok (acc, i)
  in
  let* fields, entry_off = header [] 0 in
  let field k = List.assoc_opt k fields in
  let qid = Option.value ~default:"" (field "id") in
  let* measure =
    match field "measure" with
    | None | Some "1" -> Ok true
    | Some "0" -> Ok false
    | Some other -> Error (Printf.sprintf "measure=%s (expected 0 or 1)" other)
  in
  let* kernel =
    match field "kernel" with
    | None -> Ok None
    | Some s -> (
        match Waco.Kernel.of_name s with
        | Some k -> Ok (Some k)
        | None ->
            Error
              (Printf.sprintf
                 "kernel=%s (expected one of %s)" s
                 (String.concat ", " (List.map Waco.Kernel.name Waco.Kernel.all))))
  in
  let* deadline_ms =
    match field "deadline_ms" with
    | None -> Ok 0
    | Some s -> (
        match int_of_string_opt s with
        | Some d when d >= 0 && d <= max_deadline_ms -> Ok d
        | _ ->
            Error
              (Printf.sprintf "deadline_ms=%s (expected 0..%d)" s max_deadline_ms))
  in
  let* source =
    match field "source" with
    | Some "path" -> (
        match field "path" with
        | Some p when p <> "" -> Ok (Path p)
        | _ -> Error "source=path without a path field")
    | Some "inline" -> (
        match (field "dims", field "nnz") with
        | Some dims, Some nnz_s -> (
            let* nrows, ncols =
              match String.split_on_char ' ' dims with
              | [ r; c ] -> (
                  match (int_of_string_opt r, int_of_string_opt c) with
                  | Some r, Some c when r >= 1 && c >= 1 -> Ok (r, c)
                  | _ -> Error (Printf.sprintf "bad dims %S" dims))
              | _ -> Error (Printf.sprintf "bad dims %S" dims)
            in
            match int_of_string_opt nnz_s with
            | Some nnz when nnz >= 0 && nnz <= max_inline_nnz ->
                let have = count_lines body entry_off in
                if have <> nnz then
                  Error (Printf.sprintf "nnz=%d but %d entry lines" nnz have)
                else begin
                  let entries = Array.make nnz (0, 0, 0.0) in
                  (* Fill [entries] in order; the first malformed line wins
                     the error, as the old fold did. *)
                  let rec fill k i =
                    if k = nnz then Ok (Inline { nrows; ncols; entries })
                    else
                      let j = line_end body i in
                      if j = i then fill k (j + 1)
                      else
                        let* () =
                          parse_entry body i j ~nrows ~ncols ~store:(fun r c v ->
                              entries.(k) <- (r, c, v))
                        in
                        fill (k + 1) (j + 1)
                  in
                  fill 0 entry_off
                end
            | _ -> Error (Printf.sprintf "bad nnz %S" nnz_s))
        | _ -> Error "source=inline needs dims and nnz fields")
    | Some other -> Error (Printf.sprintf "unknown source %S" other)
    | None -> Error "missing source field"
  in
  Ok { qid; source; measure; deadline_ms; kernel }

let request_of_frame ~msg body : (request, string) result =
  if msg = msg_query then
    let* q = decode_query body in
    Ok (Query q)
  else if msg = msg_stats then Ok Stats
  else if msg = msg_ping then Ok Ping
  else if msg = msg_shutdown then Ok Shutdown
  else Error (Printf.sprintf "unknown request type %d" msg)

(* --- response bodies --- *)

type answer = {
  schedule : string;  (** dataset-encoded SuperSchedule ([Sched_io]) *)
  predicted : float;
  measured : float;  (** simulator seconds; NaN when measurement was off *)
  cache_hit : bool;
  degraded : bool;
  degraded_reason : string option;
  spans : (string * float) list;
      (** per-request trace: phase name -> seconds, in phase order *)
}

type response =
  | Answer of answer
  | Stats_json of string
  | Pong
  | Bye
  | Busy of { retry_after_ms : int }
      (** load shed: the daemon's pending queue is past its high-water mark;
          retry after the hinted delay instead of hanging *)
  | Error_msg of string

let encode_answer (a : answer) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "schedule=%s\n" a.schedule;
  (* Hex floats, like the query entry lines: bit-exact and cheap to format;
     [decode_answer]'s [float_of_string_opt] reads either grammar. *)
  Printf.bprintf buf "predicted=%h\n" a.predicted;
  Printf.bprintf buf "measured=%h\n" a.measured;
  Printf.bprintf buf "cache=%s\n" (if a.cache_hit then "hit" else "miss");
  Printf.bprintf buf "degraded=%d\n" (if a.degraded then 1 else 0);
  (match a.degraded_reason with
  | Some r -> Printf.bprintf buf "reason=%s\n" (String.map (fun c -> if c = '\n' then ' ' else c) r)
  | None -> ());
  List.iter (fun (k, s) -> Printf.bprintf buf "span.%s=%h\n" k s) a.spans;
  Buffer.contents buf

let response_to_frame = function
  | Answer a -> encode_frame ~msg:msg_answer (encode_answer a)
  | Stats_json j -> encode_frame ~msg:msg_stats_json j
  | Pong -> encode_frame ~msg:msg_pong ""
  | Bye -> encode_frame ~msg:msg_bye ""
  | Busy { retry_after_ms } ->
      encode_frame ~msg:msg_busy
        (Printf.sprintf "retry_after_ms=%d\n" retry_after_ms)
  | Error_msg m -> encode_frame ~msg:msg_error m

let decode_answer body : (answer, string) result =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  let* fields =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* p = kv line in
        Ok (p :: acc))
      (Ok []) lines
  in
  let fields = List.rev fields in
  let field k = List.assoc_opt k fields in
  let* schedule =
    match field "schedule" with
    | Some s -> Ok s
    | None -> Error "answer without a schedule"
  in
  let fget k default =
    match field k with
    | Some s -> ( match float_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let spans =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"span." k then
          Option.map
            (fun s -> (String.sub k 5 (String.length k - 5), s))
            (float_of_string_opt v)
        else None)
      fields
  in
  Ok
    {
      schedule;
      predicted = fget "predicted" Float.nan;
      measured = fget "measured" Float.nan;
      cache_hit = field "cache" = Some "hit";
      degraded = field "degraded" = Some "1";
      degraded_reason = field "reason";
      spans;
    }

let decode_busy body : (response, string) result =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  let* fields =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* p = kv line in
        Ok (p :: acc))
      (Ok []) lines
  in
  match List.assoc_opt "retry_after_ms" fields with
  | Some s -> (
      match int_of_string_opt s with
      | Some r when r >= 0 -> Ok (Busy { retry_after_ms = r })
      | _ -> Error (Printf.sprintf "bad retry_after_ms %S" s))
  | None -> Error "busy response without retry_after_ms"

let response_of_frame ~msg body : (response, string) result =
  if msg = msg_answer then
    let* a = decode_answer body in
    Ok (Answer a)
  else if msg = msg_stats_json then Ok (Stats_json body)
  else if msg = msg_pong then Ok Pong
  else if msg = msg_bye then Ok Bye
  else if msg = msg_busy then decode_busy body
  else if msg = msg_error then Ok (Error_msg body)
  else Error (Printf.sprintf "unknown response type %d" msg)
