(* Unit and property tests for the sparse-tensor substrate. *)

open Sptensor

let rng () = Rng.create 12345

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independence () =
  let parent = Rng.create 7 in
  let c1 = Rng.split parent in
  let x1 = Rng.int c1 1000000 in
  let parent2 = Rng.create 7 in
  let c1' = Rng.split parent2 in
  Alcotest.(check int) "split deterministic" x1 (Rng.int c1' 1000000)

let test_rng_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0);
    let y = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "int_in in range" true (y >= -5 && y <= 5)
  done

let test_rng_permutation () =
  let r = rng () in
  let p = Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_categorical () =
  let r = rng () in
  for _ = 1 to 50 do
    Alcotest.(check int) "categorical deterministic" 2
      (Rng.categorical r [| 0.0; 0.0; 5.0; 0.0 |])
  done

(* --- Coo --- *)

let triple_t = Alcotest.(triple int int (float 1e-9))

let test_coo_of_triplets_sorts_and_sums () =
  let m = Coo.of_triplets ~nrows:3 ~ncols:3 [ (2, 1, 1.0); (0, 0, 2.0); (2, 1, 3.0) ] in
  Alcotest.(check int) "nnz after dedup" 2 (Coo.nnz m);
  Alcotest.(check (list triple_t))
    "sorted and summed"
    [ (0, 0, 2.0); (2, 1, 4.0) ]
    (Coo.to_triplets m)

let test_coo_out_of_bounds () =
  Alcotest.check_raises "oob raises"
    (Invalid_argument "Coo.of_triplets: (3,0) out of 3x3") (fun () ->
      ignore (Coo.of_triplets ~nrows:3 ~ncols:3 [ (3, 0, 1.0) ]))

let test_coo_transpose_involution () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:40 ~ncols:30 ~nnz:200 in
  Alcotest.(check bool) "transpose twice = id" true
    (Coo.approx_equal (Coo.transpose (Coo.transpose m)) m)

let test_coo_dense_roundtrip () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:20 ~ncols:25 ~nnz:80 in
  Alcotest.(check bool) "to_dense/of_dense roundtrip" true
    (Coo.approx_equal (Coo.of_dense (Coo.to_dense m)) m)

let test_coo_row_ptr () =
  let m = Coo.of_triplets ~nrows:3 ~ncols:4 [ (0, 1, 1.); (0, 3, 1.); (2, 0, 1.) ] in
  Alcotest.(check (array int)) "row_ptr" [| 0; 2; 2; 3 |] (Coo.row_ptr m)

(* --- Csr --- *)

let test_csr_roundtrip () =
  let r = rng () in
  let m = Gen.power_law r ~alpha:1.3 ~nrows:50 ~ncols:60 ~nnz:300 in
  Alcotest.(check bool) "coo->csr->coo" true
    (Coo.approx_equal (Csr.to_coo (Csr.of_coo m)) m)

let test_csr_spmv_vs_dense () =
  let r = rng () in
  let m = Gen.banded r ~half_bw:4 ~nrows:30 ~ncols:30 ~nnz:150 in
  let x = Dense.vec_random r 30 in
  let d = Coo.to_dense m in
  let expected =
    Array.init 30 (fun i ->
        let acc = ref 0.0 in
        for j = 0 to 29 do
          acc := !acc +. (Dense.get d i j *. x.(j))
        done;
        !acc)
  in
  Alcotest.(check bool) "spmv matches dense" true
    (Dense.vec_approx_equal ~eps:1e-9 (Csr.spmv (Csr.of_coo m) x) expected)

let test_csr_sddmm_pattern () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:12 ~ncols:14 ~nnz:40 in
  let b = Dense.mat_random r 12 5 in
  let c = Dense.mat_random r 5 14 in
  let d = Csr.sddmm (Csr.of_coo m) b c in
  Alcotest.(check int) "sddmm keeps pattern" (Coo.nnz m) (Csr.nnz d)

(* --- Tensor3 --- *)

let test_tensor3_dedup () =
  let t =
    Tensor3.of_quads ~dim_i:4 ~dim_k:4 ~dim_l:4
      [ (1, 2, 3, 1.0); (1, 2, 3, 2.0); (0, 0, 0, 1.0) ]
  in
  Alcotest.(check int) "duplicates summed" 2 (Tensor3.nnz t)

let test_tensor3_mttkrp_vs_manual () =
  let r = rng () in
  let t = Gen.tensor3_uniform r ~dim_i:8 ~dim_k:6 ~dim_l:5 ~nnz:40 in
  let b = Dense.mat_random r 6 3 in
  let c = Dense.mat_random r 5 3 in
  let d = Tensor3.mttkrp t b c in
  let expected = Dense.mat_create 8 3 in
  Tensor3.iter
    (fun i k l v ->
      for j = 0 to 2 do
        Dense.add_to expected i j (v *. Dense.get b k j *. Dense.get c l j)
      done)
    t;
  Alcotest.(check bool) "mttkrp" true (Dense.mat_approx_equal ~eps:1e-9 d expected)

let test_tensor3_flatten_nnz () =
  let r = rng () in
  let t = Gen.tensor3_uniform r ~dim_i:10 ~dim_k:10 ~dim_l:10 ~nnz:100 in
  Alcotest.(check int) "flatten preserves nnz" (Tensor3.nnz t)
    (Coo.nnz (Tensor3.flatten t))

(* --- Stats --- *)

let test_stats_basic () =
  let m = Coo.of_triplets ~nrows:4 ~ncols:4 [ (0, 0, 1.); (0, 1, 1.); (1, 1, 1.) ] in
  let s = Stats.compute m in
  Alcotest.(check int) "nnz" 3 s.Stats.nnz;
  Alcotest.(check int) "row max" 2 s.Stats.row_nnz_max;
  Alcotest.(check int) "empty rows" 2 s.Stats.empty_rows

let test_stats_block_full () =
  let m =
    Coo.of_triplets ~nrows:4 ~ncols:4 [ (0, 0, 1.); (0, 1, 1.); (1, 0, 1.); (1, 1, 1.) ]
  in
  let b = Stats.block_stats m ~bi:2 ~bk:2 in
  Alcotest.(check int) "one block" 1 b.Stats.nonempty_blocks;
  Alcotest.(check (float 1e-9)) "full" 1.0 b.Stats.avg_fill

let test_stats_chunk_work () =
  let work = Stats.chunk_work [| 1; 2; 3; 4; 5 |] ~chunk:2 in
  Alcotest.(check (array int)) "chunked sums" [| 3; 7; 5 |] work

(* --- Gen --- *)

let test_gen_shapes () =
  let r = rng () in
  List.iter
    (fun family ->
      let m = Gen.generate r family ~nrows:100 ~ncols:100 ~nnz:500 in
      Alcotest.(check bool)
        (Gen.family_name family ^ " nonempty")
        true
        (Coo.nnz m > 0 && m.Coo.nrows <= 100 && m.Coo.ncols <= 100))
    (Array.to_list Gen.all_families)

let test_gen_block_alignment () =
  let r = rng () in
  let m = Gen.block_dense r ~block:4 ~nrows:64 ~ncols:64 ~nnz:256 in
  let b = Stats.block_stats m ~bi:4 ~bk:4 in
  Alcotest.(check (float 0.01)) "blocks fully filled" 1.0 b.Stats.avg_fill

let test_gen_resize_bounds () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:100 ~ncols:100 ~nnz:400 in
  let m' = Gen.resize r m ~nrows:37 ~ncols:53 in
  Alcotest.(check bool) "resized in bounds" true
    (m'.Coo.nrows = 37 && m'.Coo.ncols = 53 && Coo.nnz m' > 0);
  Coo.iter (fun i j _ -> assert (i < 37 && j < 53)) m'

let test_gen_suite_determinism () =
  let s1 = Gen.suite (Rng.create 5) ~count:4 ~max_dim:128 ~max_nnz:500 in
  let s2 = Gen.suite (Rng.create 5) ~count:4 ~max_dim:128 ~max_nnz:500 in
  List.iter2
    (fun (a : Gen.named) (b : Gen.named) ->
      Alcotest.(check string) "names equal" a.Gen.name b.Gen.name;
      Alcotest.(check bool) "matrices equal" true (Coo.equal a.Gen.matrix b.Gen.matrix))
    s1 s2

(* --- Mmio --- *)

let test_mmio_roundtrip () =
  let r = rng () in
  let m = Gen.uniform r ~nrows:30 ~ncols:40 ~nnz:100 in
  let path = Filename.temp_file "waco" ".mtx" in
  Mmio.write_coo path m;
  let m' = Mmio.read_coo path in
  Sys.remove path;
  Alcotest.(check bool) "mmio roundtrip" true (Coo.approx_equal m m')

(* --- qcheck properties --- *)

let qcheck_coo_roundtrip =
  QCheck.Test.make ~name:"coo dense roundtrip (prop)" ~count:50 QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 1) in
      let nrows = 1 + Rng.int r 30 and ncols = 1 + Rng.int r 30 in
      let nnz = min (nrows * ncols / 2) (1 + Rng.int r 100) in
      let nnz = max 1 nnz in
      let m = Gen.uniform r ~nrows ~ncols ~nnz in
      Coo.approx_equal (Coo.of_dense (Coo.to_dense m)) m)

let qcheck_transpose_preserves_nnz =
  QCheck.Test.make ~name:"transpose preserves nnz (prop)" ~count:50 QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 1) in
      let m = Gen.power_law r ~alpha:1.2 ~nrows:40 ~ncols:40 ~nnz:150 in
      Coo.nnz (Coo.transpose m) = Coo.nnz m)

let qcheck_chunk_work_total =
  QCheck.Test.make ~name:"chunk_work conserves total (prop)" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(1 -- 50) (int_range 0 9)))
    (fun (chunk, counts) ->
      let arr = Array.of_list counts in
      let work = Stats.chunk_work arr ~chunk in
      Array.fold_left ( + ) 0 work = Array.fold_left ( + ) 0 arr)

(* The per-draw linear scan [Rng.zipf_sampler] replaced, kept here as the
   reference: build the weight table, sample it with [Rng.categorical]. *)
let zipf_reference t ~alpha n =
  Rng.categorical t (Array.init n (fun k -> Float.pow (float_of_int (k + 1)) (-.alpha)))

(* Same generator state in, same index and same state out — over sizes
   from 1 to past the generators' 4096 clamp and exponents from flat to
   steep. *)
let qcheck_zipf_sampler_matches_reference =
  QCheck.Test.make ~name:"zipf sampler = linear-scan reference (prop)" ~count:200
    QCheck.(triple (int_range 1 5000) (float_range 0.0 3.0) small_nat)
    (fun (n, alpha, seed) ->
      let draw = Rng.zipf_sampler ~alpha n in
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all
        (fun _ -> draw a = zipf_reference b ~alpha n && Rng.state a = Rng.state b)
        (List.init 50 Fun.id))

let () =
  Alcotest.run "sptensor"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "categorical" `Quick test_rng_categorical;
        ] );
      ( "coo",
        [
          Alcotest.test_case "of_triplets sorts+sums" `Quick
            test_coo_of_triplets_sorts_and_sums;
          Alcotest.test_case "out of bounds" `Quick test_coo_out_of_bounds;
          Alcotest.test_case "transpose involution" `Quick test_coo_transpose_involution;
          Alcotest.test_case "dense roundtrip" `Quick test_coo_dense_roundtrip;
          Alcotest.test_case "row_ptr" `Quick test_coo_row_ptr;
        ] );
      ( "csr",
        [
          Alcotest.test_case "roundtrip" `Quick test_csr_roundtrip;
          Alcotest.test_case "spmv vs dense" `Quick test_csr_spmv_vs_dense;
          Alcotest.test_case "sddmm pattern" `Quick test_csr_sddmm_pattern;
        ] );
      ( "tensor3",
        [
          Alcotest.test_case "dedup" `Quick test_tensor3_dedup;
          Alcotest.test_case "mttkrp vs manual" `Quick test_tensor3_mttkrp_vs_manual;
          Alcotest.test_case "flatten nnz" `Quick test_tensor3_flatten_nnz;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "block full" `Quick test_stats_block_full;
          Alcotest.test_case "chunk work" `Quick test_stats_chunk_work;
        ] );
      ( "gen",
        [
          Alcotest.test_case "all families" `Quick test_gen_shapes;
          Alcotest.test_case "block alignment" `Quick test_gen_block_alignment;
          Alcotest.test_case "resize bounds" `Quick test_gen_resize_bounds;
          Alcotest.test_case "suite determinism" `Quick test_gen_suite_determinism;
        ] );
      ("mmio", [ Alcotest.test_case "roundtrip" `Quick test_mmio_roundtrip ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_coo_roundtrip;
            qcheck_transpose_preserves_nnz;
            qcheck_chunk_work_total;
            qcheck_zipf_sampler_matches_reference;
          ]
      );
    ]
