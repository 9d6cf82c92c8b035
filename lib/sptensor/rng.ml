(* Deterministic splittable pseudo-random number generator (SplitMix64).

   Every stochastic component of the reproduction (pattern generators, dataset
   sampling, network initialization, HNSW level draws, black-box optimizers)
   draws from an explicit [Rng.t] so that all experiments are reproducible
   from a single seed and independent streams can be split off without
   coupling consumers to each other's draw counts. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* Raw state capture/restore, for training checkpoints: a resumed run must
   continue the exact draw stream the interrupted run would have produced. *)
let state t = t.state

let set_state t s = t.state <- s

(* Core SplitMix64 step: advance by the golden gamma, then mix. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Split off an independent stream.  The child is seeded from the parent's
   output so sibling streams are decorrelated. *)
let split t = { state = next_int64 t }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Uniform integer in [0, n). *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

(* Uniform integer in [lo, hi] inclusive. *)
let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* Uniform float in [0, 1). *)
let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992.0 (* 2^53 *)

let float_in t lo hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Sample an index from unnormalized non-negative weights. *)
let categorical t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then int t (Array.length weights)
  else begin
    let x = float t *. total in
    let acc = ref 0.0 and chosen = ref (Array.length weights - 1) in
    (try
       Array.iteri
         (fun i w ->
           acc := !acc +. w;
           if x < !acc then begin
             chosen := i;
             raise Exit
           end)
         weights
     with Exit -> ());
    !chosen
  end

(* Pick a uniform element of a non-empty array. *)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

(* In-place Fisher-Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* A uniformly random permutation of [0, n). *)
let permutation t n =
  let p = Array.init n (fun i -> i) in
  shuffle t p;
  p

(* Power-law (Zipf-like) integers in [0, n) with exponent [alpha]:
   P(k) proportional to (k+1)^-alpha.  Used for skewed row-degree patterns.
   The cumulative weights are summed once, left to right in [categorical]'s
   order, so the total and every prefix are the same floats it computes;
   each draw then binary-searches the first [i] with [x < cum.(i)] — the
   index [categorical]'s linear scan stops at, in O(log n). *)
let zipf_sampler ~alpha n =
  let cum = Array.make (max n 0) 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. Float.pow (float_of_int (k + 1)) (-.alpha);
    cum.(k) <- !acc
  done;
  let total = !acc in
  fun t ->
    if total <= 0.0 then int t n
    else begin
      let x = float t *. total in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if x < cum.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end
