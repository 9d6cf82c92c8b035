(* Output checks, built apart from the program: answered schedules are
   parsed and linted, packed into their format and run against a dense
   product computed here from the COO triplets, and measured times are
   recomputed with the simulator. *)

open Sptensor
open Schedule

type t = { mutable passed : int; mutable failed : int }

let create () = { passed = 0; failed = 0 }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if t.failed <= 20 then Util.log "CHECK FAILED: %s" msg)
    fmt

let ok t = t.passed <- t.passed + 1

let expect t cond fmt =
  Printf.ksprintf (fun msg -> if cond then ok t else fail t "%s" msg) fmt

(* The simulator's runtime, as the benchmark computes it itself. *)
let runtime wl sched =
  Trace.span "machine.costsim" (fun () ->
      Machine_model.Costsim.runtime Inputs.machine wl sched)

let csr = Superschedule.fixed_default Inputs.algo

(* The answered schedule text parses and carries no error diagnostic. *)
let schedule t ~what text =
  match Sched_io.parse ~algo:Inputs.algo text with
  | Error e ->
      fail t "%s: schedule does not parse: %s" what e;
      None
  | Ok s -> (
      match Diag.first_error (Superschedule.check s) with
      | Some d ->
          fail t "%s: illegal schedule: %s" what (Diag.to_string d);
          None
      | None ->
          ok t;
          Some s)

let dense_cols = 4

let operand ncols =
  Dense.mat_init ncols dense_cols (fun j c ->
      float_of_int (((j * 7) + (c * 3)) mod 11 - 5) /. 4.0)

(* C = A B with B [operand], by a plain loop over the triplets. *)
let reference (m : Coo.t) b =
  let c = Array.make (m.Coo.nrows * dense_cols) 0.0 in
  for k = 0 to Coo.nnz m - 1 do
    let i = m.Coo.rows.(k) and j = m.Coo.cols.(k) and v = m.Coo.vals.(k) in
    for col = 0 to dense_cols - 1 do
      let idx = (i * dense_cols) + col in
      c.(idx) <- c.(idx) +. (v *. b.Dense.data.((j * dense_cols) + col))
    done
  done;
  c

(* Pack [m] into the schedule's format, run SpMM, compare with the dense
   reference. *)
let kernel t ~what sched (m : Coo.t) =
  match Exec_engine.Kernels.pack_for sched m with
  | Error e -> fail t "%s: packing failed: %s" what e
  | Ok packed -> (
      let b = operand m.Coo.ncols in
      match Exec_engine.Kernels.spmm packed b with
      | exception Invalid_argument e -> fail t "%s: kernel raised: %s" what e
      | got ->
          let want = reference m b in
          let worst = ref 0.0 in
          Array.iteri
            (fun i w ->
              let d = Float.abs (got.Dense.data.(i) -. w) /. (1.0 +. Float.abs w) in
              if d > !worst then worst := d)
            want;
          expect t
            (got.Dense.rows = m.Coo.nrows && !worst <= 1e-9)
            "%s: SpMM in the answered format differs from the reference by %g"
            what !worst)

let measured t ~what wl sched value =
  let own = runtime wl sched in
  expect t (Float.equal own value)
    "%s: measured %h but the simulator gives %h" what value own

(* fixed-CSR time over the answered schedule's time. *)
let speedup wl sched = runtime wl csr /. runtime wl sched
