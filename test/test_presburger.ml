(* Oracle tests for the Presburger engine and the exact dependence
   analyzer: brute-force enumeration of small bounded systems and
   iteration spaces against the engine's verdicts — the same harness
   discipline as test_bnb.ml. *)

module P = Mlo_ir.Presburger
module Dependence = Mlo_ir.Dependence
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Affine = Mlo_ir.Affine
module Program = Mlo_ir.Program
module Rng = Mlo_csp.Rng
module Suite = Mlo_workloads.Suite
module Spec = Mlo_workloads.Spec
module Optimizer = Mlo_core.Optimizer

(* ------------------------------------------------------------------ *)
(* Engine unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_equality_gcd () =
  (* 2x + 4y = 5: even = odd, refuted during normalization *)
  let sys = P.make ~nvars:2 [ P.eq [| 2; 4 |] (-5) ] in
  Alcotest.(check bool) "2x+4y=5 infeasible" false (P.feasible sys);
  (* 3x + 5y = 1 is solvable (x=2, y=-1), even inside a small box *)
  let sys =
    P.make ~nvars:2
      (P.eq [| 3; 5 |] (-1)
      :: (P.between ~nvars:2 0 ~lo:(-4) ~hi:4
         @ P.between ~nvars:2 1 ~lo:(-4) ~hi:4))
  in
  Alcotest.(check bool) "3x+5y=1 feasible" true (P.feasible sys)

let test_integer_tightening () =
  (* 3 <= 2x <= 3 has the rational solution x = 3/2 and no integer one;
     gcd normalization with constant flooring refutes it outright *)
  let sys = P.make ~nvars:1 [ P.geq [| 2 |] (-3); P.leq [| 2 |] (-3) ] in
  Alcotest.(check bool) "3 <= 2x <= 3 infeasible" false (P.feasible sys);
  let sys = P.make ~nvars:1 [ P.geq [| 2 |] (-3); P.leq [| 2 |] (-4) ] in
  Alcotest.(check bool) "3 <= 2x <= 4 feasible" true (P.feasible sys)

let test_dark_shadow_splinter () =
  (* Pugh's classic: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4 is
     real-feasible but has no integer point; the dark shadow fails and
     only splintering can refute it *)
  let before = P.stats () in
  let sys =
    P.make ~nvars:2
      [
        P.geq [| 11; 13 |] (-27);
        P.leq [| 11; 13 |] (-45);
        P.geq [| 7; -9 |] 10;
        P.leq [| 7; -9 |] (-4);
      ]
  in
  Alcotest.(check bool) "pugh system infeasible" false (P.feasible sys);
  Alcotest.(check bool) "splintering exercised" true
    ((P.stats ()).P.splits > before.P.splits);
  (* a high-water mark, which only grows *)
  Alcotest.(check bool) "split depth recorded" true
    ((P.stats ()).P.max_split_depth >= 1);
  (* dropping the second band leaves integer points (e.g. x=1, y=2) *)
  let sys =
    P.make ~nvars:2 [ P.geq [| 11; 13 |] (-27); P.leq [| 11; 13 |] (-45) ]
  in
  Alcotest.(check bool) "single band feasible" true (P.feasible sys)

let test_range () =
  (* x + y = 5 over [0,4]^2: x ranges over [1,4], x - y over [-3,3] *)
  let sys =
    P.make ~nvars:2
      (P.eq [| 1; 1 |] (-5)
      :: (P.between ~nvars:2 0 ~lo:0 ~hi:4 @ P.between ~nvars:2 1 ~lo:0 ~hi:4))
  in
  (match P.range sys ~coeffs:[| 1; 0 |] ~lo:(-10) ~hi:10 with
  | Some (1, 4) -> ()
  | Some (a, b) -> Alcotest.failf "x range: expected (1,4), got (%d,%d)" a b
  | None -> Alcotest.fail "x range: expected feasible");
  (match P.range sys ~coeffs:[| 1; -1 |] ~lo:(-10) ~hi:10 with
  | Some (-3, 3) -> ()
  | Some (a, b) -> Alcotest.failf "x-y range: expected (-3,3), got (%d,%d)" a b
  | None -> Alcotest.fail "x-y range: expected feasible");
  let empty = P.add sys [ P.geq [| 1; 0 |] (-9) ] in
  Alcotest.(check bool) "range of infeasible is None" true
    (P.range empty ~coeffs:[| 1; 0 |] ~lo:(-10) ~hi:10 = None)

(* ------------------------------------------------------------------ *)
(* qcheck oracle: random bounded systems vs brute enumeration           *)
(* ------------------------------------------------------------------ *)

type rsys = {
  nvars : int;
  boxes : (int * int) array; (* inclusive *)
  extras : (bool * int array * int) list; (* is_eq, coeffs, const *)
  form : int array; (* objective form for the range oracle *)
}

let gen_sys =
  QCheck.map
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let nvars = 1 + Rng.int rng 3 in
      let boxes =
        Array.init nvars (fun _ ->
            let lo = Rng.int rng 4 - 3 in
            (lo, lo + Rng.int rng 5))
      in
      let extras =
        List.init (Rng.int rng 4) (fun _ ->
            ( Rng.int rng 3 = 0,
              Array.init nvars (fun _ -> Rng.int rng 7 - 3),
              Rng.int rng 13 - 6 ))
      in
      let form = Array.init nvars (fun _ -> Rng.int rng 7 - 3) in
      { nvars; boxes; extras; form })
    QCheck.small_nat

let to_system s =
  let cs = ref [] in
  Array.iteri
    (fun i (lo, hi) -> cs := P.between ~nvars:s.nvars i ~lo ~hi @ !cs)
    s.boxes;
  List.iter
    (fun (is_eq, c, k) ->
      cs := (if is_eq then P.eq c k else P.geq c k) :: !cs)
    s.extras;
  P.make ~nvars:s.nvars !cs

(* Call [f] on every integer point of the box satisfying the extras. *)
let brute_iter s f =
  let x = Array.make s.nvars 0 in
  let dot c = Array.fold_left ( + ) 0 (Array.mapi (fun i ci -> ci * x.(i)) c) in
  let ok () =
    List.for_all
      (fun (is_eq, c, k) ->
        let v = dot c + k in
        if is_eq then v = 0 else v >= 0)
      s.extras
  in
  let rec go i =
    if i = s.nvars then (if ok () then f x)
    else
      let lo, hi = s.boxes.(i) in
      for v = lo to hi do
        x.(i) <- v;
        go (i + 1)
      done
  in
  go 0

let brute_feasible s =
  let found = ref false in
  brute_iter s (fun _ -> found := true);
  !found

let prop_feasibility_oracle =
  QCheck.Test.make
    ~name:"feasibility agrees with brute-force enumeration" ~count:320 gen_sys
    (fun s -> P.feasible (to_system s) = brute_feasible s)

let prop_range_oracle =
  QCheck.Test.make ~name:"range agrees with brute-force extrema" ~count:200
    gen_sys (fun s ->
      let mn = ref max_int and mx = ref min_int in
      brute_iter s (fun x ->
          let v =
            Array.fold_left ( + ) 0 (Array.mapi (fun i c -> c * x.(i)) s.form)
          in
          if v < !mn then mn := v;
          if v > !mx then mx := v);
      (* outer bounds from interval arithmetic over the box *)
      let olo = ref 0 and ohi = ref 0 in
      Array.iteri
        (fun i c ->
          let lo, hi = s.boxes.(i) in
          if c > 0 then (olo := !olo + (c * lo); ohi := !ohi + (c * hi))
          else (olo := !olo + (c * hi); ohi := !ohi + (c * lo)))
        s.form;
      match P.range (to_system s) ~coeffs:s.form ~lo:!olo ~hi:!ohi with
      | None -> !mn > !mx (* brute found nothing either *)
      | Some (a, b) -> a = !mn && b = !mx)

(* ------------------------------------------------------------------ *)
(* qcheck oracle: dependence analysis vs brute-force execution          *)
(* ------------------------------------------------------------------ *)

(* Random small nests with an arbitrary (possibly non-uniform, possibly
   singular) write/read or write/write pair on one array. *)
let gen_nest =
  QCheck.map
    (fun seed ->
      let rng = Rng.create (seed + 31) in
      let depth = 2 + Rng.int rng 2 in
      let dims = 1 + Rng.int rng 2 in
      let loops =
        List.init depth (fun l ->
            {
              Loop_nest.var = Printf.sprintf "i%d" l;
              lo = 0;
              hi = 2 + Rng.int rng 3;
            })
      in
      let expr () =
        Affine.make (List.init depth (fun _ -> Rng.int rng 5 - 2)) (Rng.int rng 5 - 2)
      in
      let access mk = mk "A" (List.init dims (fun _ -> expr ())) in
      let w = access Access.write in
      let o =
        if Rng.int rng 4 = 0 then access Access.write else access Access.read
      in
      Loop_nest.make ~name:"rnd" loops [ w; o ])
    QCheck.small_nat

let iteration_vectors nest =
  let acc = ref [] in
  Loop_nest.iter nest (fun iv -> acc := Array.copy iv :: !acc);
  List.rev !acc

let lex_sign v =
  let rec go i =
    if i >= Array.length v then 0
    else if v.(i) > 0 then 1
    else if v.(i) < 0 then -1
    else go (i + 1)
  in
  go 0

(* Realized normalized distances between accesses [i] and [j]: every
   I <> I' touching the same element contributes |I' - I| with the lex
   sign flipped positive. *)
let realized nest i j =
  let accs = Loop_nest.accesses nest in
  let ivs = iteration_vectors nest in
  let out = ref [] in
  List.iter
    (fun iv ->
      List.iter
        (fun iv' ->
          if iv <> iv'
             && Access.element_at accs.(i) iv = Access.element_at accs.(j) iv'
          then begin
            let d = Array.init (Array.length iv) (fun l -> iv'.(l) - iv.(l)) in
            let d = if lex_sign d < 0 then Array.map (fun x -> -x) d else d in
            if not (List.mem d !out) then out := d :: !out
          end)
        ivs)
    ivs;
  !out

let dep_covers dep delta =
  match dep with
  | Dependence.Distance v -> v = delta
  | Dependence.Direction dirs ->
      Array.length dirs = Array.length delta
      && Array.for_all2
           (fun dir dl ->
             match dir with
             | Dependence.Lt -> dl >= 1
             | Dependence.Eq -> dl = 0
             | Dependence.Gt -> dl <= -1)
           dirs delta

(* [pair_deps] summarizes exactly the realized distance set of every
   conflicting pair of [nest]. *)
let summarizes_realized nest =
  List.for_all
    (fun (i, j, ds) ->
      let r = realized nest i j in
      (* complete: every realized distance is covered by some dep *)
      List.for_all
        (fun delta -> List.exists (fun d -> dep_covers d delta) ds)
        r
      (* sound: every dep is witnessed by a realized distance and is
         normalized (first non-Eq component is Lt) *)
      && List.for_all
           (fun d ->
             (match d with
             | Dependence.Distance v -> List.mem v r
             | Dependence.Direction dirs ->
                 (match
                    Array.to_list dirs
                    |> List.find_opt (fun x -> x <> Dependence.Eq)
                  with
                 | Some Dependence.Lt -> true
                 | _ -> false)
                 && List.exists (fun delta -> dep_covers d delta) r)
             [@warning "-4"])
           ds
      && (ds = []) = (r = []))
    (Dependence.pair_deps nest)

let prop_deps_oracle =
  QCheck.Test.make
    ~name:"pair deps summarize exactly the realized distance set" ~count:250
    gen_nest summarizes_realized

(* Random nests whose two references share one access matrix — the
   closed-form path — with forced zero columns, rank-deficient matrices
   (more mentioned levels than array dimensions, or a repeated row),
   nonzero lower bounds and single-trip levels. *)
let gen_uniform_nest =
  QCheck.map
    (fun seed ->
      let rng = Rng.create (seed + 57) in
      let depth = 1 + Rng.int rng 3 in
      let dims = 1 + Rng.int rng 2 in
      let loops =
        List.init depth (fun l ->
            let lo = Rng.int rng 5 - 2 in
            let hi = lo + 1 + Rng.int rng 4 in
            { Loop_nest.var = Printf.sprintf "i%d" l; lo; hi })
      in
      let zero_col = Rng.int rng (depth + 1) in
      let row () =
        List.init depth (fun l -> if l = zero_col then 0 else Rng.int rng 5 - 2)
      in
      let rows =
        match List.init dims (fun _ -> row ()) with
        | [ r; _ ] when Rng.int rng 4 = 0 -> [ r; List.map (fun c -> 2 * c) r ]
        | rows -> rows
      in
      let access mk =
        mk "A" (List.map (fun r -> Affine.make r (Rng.int rng 7 - 3)) rows)
      in
      let w = access Access.write in
      let o =
        if Rng.int rng 4 = 0 then access Access.write else access Access.read
      in
      Loop_nest.make ~name:"uniform" loops [ w; o ])
    QCheck.(int_bound 1_000_000)

let prop_uniform_oracle =
  QCheck.Test.make
    ~name:"uniform pairs summarize exactly the realized distance set"
    ~count:300 gen_uniform_nest summarizes_realized

let prop_uniform_matches_omega =
  QCheck.Test.make
    ~name:"closed form returns the Omega path's dep list, order included"
    ~count:400 gen_uniform_nest (fun nest ->
      let accs = Loop_nest.accesses nest in
      List.for_all
        (fun (i, j, ds) ->
          ds = Dependence.omega_pair_deps nest accs.(i) accs.(j))
        (Dependence.pair_deps nest))

let test_uniform_generator_covers_both_methods () =
  (* the generator must reach the closed form and, through rank
     deficiency, the Omega fallback — or the two properties above
     would compare a path with itself *)
  let closed = ref 0 and omega = ref 0 in
  for seed = 0 to 199 do
    let nest =
      QCheck.Gen.generate1
        ~rand:(Random.State.make [| seed |])
        gen_uniform_nest.QCheck.gen
    in
    let accs = Loop_nest.accesses nest in
    List.iter
      (fun (i, j, _) ->
        match Dependence.pair_method nest accs.(i) accs.(j) with
        | Dependence.Closed_form -> incr closed
        | Dependence.Omega -> incr omega)
      (Dependence.pair_deps nest)
  done;
  Alcotest.(check bool) "closed-form pairs generated" true (!closed > 0);
  Alcotest.(check bool) "rank-deficient pairs generated" true (!omega > 0)

let test_overflow_guard () =
  (* store A[3e18*i+1][j]; load A[3e18*i][j]: uniform, but a coefficient
     beyond 2^30 sends the pair to the Omega path, whose equality
     3e18*(i-i') = -1 is refuted by its gcd test *)
  let big = 3_000_000_000_000_000_000 in
  let loops =
    [
      { Loop_nest.var = "i"; lo = 0; hi = 4 };
      { Loop_nest.var = "j"; lo = 0; hi = 4 };
    ]
  in
  let j = Affine.make [ 0; 1 ] 0 in
  let w = Access.write "A" [ Affine.make [ big; 0 ] 1; j ] in
  let r = Access.read "A" [ Affine.make [ big; 0 ] 0; j ] in
  let nest = Loop_nest.make ~name:"overflow" loops [ w; r ] in
  Alcotest.(check bool) "guarded to omega" true
    (Dependence.pair_method nest w r = Dependence.Omega);
  Alcotest.(check bool) "same verdict as the Omega path" true
    (List.for_all
       (fun (i, j, ds) ->
         let accs = Loop_nest.accesses nest in
         ds = Dependence.omega_pair_deps nest accs.(i) accs.(j))
       (Dependence.pair_deps nest));
  Alcotest.(check int) "write/read pair independent" 0
    (List.length (List.filter (fun (i, j, _) -> i <> j) (Dependence.deps nest)))

let prop_legality_oracle =
  QCheck.Test.make
    ~name:"legal_permutation agrees with brute execution reordering"
    ~count:200 gen_nest (fun nest ->
      let accs = Loop_nest.accesses nest in
      let n = Array.length accs in
      let ivs = iteration_vectors nest in
      (* ordered conflicting access pairs (same array, >= one write) *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Access.is_write accs.(i) || Access.is_write accs.(j) then
            pairs := (accs.(i), accs.(j)) :: !pairs
        done
      done;
      let apply perm iv = Array.init (Array.length perm) (fun p -> iv.(perm.(p))) in
      (* A reorder is legal iff every same-element pair executed in a
         strict source order stays in that order afterwards. *)
      let brute_legal perm =
        List.for_all
          (fun (a1, a2) ->
            List.for_all
              (fun iv ->
                List.for_all
                  (fun iv' ->
                    (not
                       (compare iv iv' < 0
                       && Access.element_at a1 iv = Access.element_at a2 iv'))
                    || compare (apply perm iv) (apply perm iv') < 0)
                  ivs)
              ivs)
          !pairs
      in
      List.for_all
        (fun (p, _) -> Dependence.legal_permutation nest p = brute_legal p)
        (Loop_nest.permutations nest))

(* ------------------------------------------------------------------ *)
(* Suite goldens: legal-order counts and end-to-end objective           *)
(* ------------------------------------------------------------------ *)

let legal_orders spec =
  Array.fold_left
    (fun acc nest -> acc + List.length (Dependence.legal_permutations nest))
    0
    (Program.nests spec.Spec.program)

let test_suite_legal_order_goldens () =
  (* GCD-era baseline, recorded before the rewrite: med-im04 240,
     mxm 18, radar 798, shape 1124, track 940 — all already maximal
     (every order legal), so exactness must keep them intact. *)
  List.iter2
    (fun spec expect ->
      Alcotest.(check int) spec.Spec.name expect (legal_orders spec))
    (Suite.all ())
    [ 240; 18; 798; 1124; 940 ]

let test_scale_gains_legal_orders () =
  (* The scale family's windowed-update nests (store Q[i+b][j], load
     Q[i][j+1]) carry the uniform distance (b, -1), which exceeds the
     i-trip count: the GCD-era analyzer reported it as an Exact
     dependence and rejected the interchange (1 legal order); the
     bounded system proves independence (2 legal orders). *)
  let spec = Suite.by_name "scale-10" in
  let nests = Program.nests spec.Spec.program in
  let shifted =
    Array.to_list nests
    |> List.filter (fun n ->
           let name = Loop_nest.name n in
           String.length name >= 5 && String.sub name 0 5 = "shift")
  in
  Alcotest.(check bool) "shift nests present" true (shifted <> []);
  List.iter
    (fun nest ->
      Alcotest.(check int) "proved independent" 0
        (List.length (Dependence.deps nest));
      Alcotest.(check int) "both orders legal (GCD era pinned to 1)" 2
        (List.length (Dependence.legal_permutations nest)))
    shifted;
  (* whole-family golden: 11 classic nests x 2 + shift nests x 2 *)
  Alcotest.(check int) "scale-10 legal orders" 24 (legal_orders spec)

let test_objective_never_worse () =
  (* End-to-end branch-and-bound objective on the five benchmarks must
     never regress past the GCD-era optima (legal-order sets only
     grow): med-im04 26132, mxm 67536, radar 97672, shape 136978,
     track 102167. *)
  List.iter2
    (fun spec bound ->
      let sol =
        Optimizer.optimize ~candidates:spec.Spec.candidates
          (Optimizer.Bnb Mlo_csp.Bnb.default_config)
          spec.Spec.program
      in
      match sol.Optimizer.objective_value with
      | Some v ->
          if v > bound +. 1e-6 then
            Alcotest.failf "%s: objective %.1f worse than GCD-era %.1f"
              spec.Spec.name v bound
      | None -> Alcotest.fail "bnb must report an objective")
    (Suite.all ())
    [ 26132.; 67536.; 97672.; 136978.; 102167. ]

let test_closed_form_coverage () =
  (* every dependent pair of the paper programs, their simulation-size
     twins and scale-100 is uniform with a full-rank matrix once zero
     columns drop: legality needs no Presburger check at all *)
  let progs =
    List.concat_map
      (fun s -> [ s.Spec.program; s.Spec.sim_program ])
      (Suite.all ())
    @ [ (Suite.by_name "scale-100").Spec.program ]
  in
  let before = (P.stats ()).P.checks in
  let closed = ref 0 in
  List.iter
    (fun prog ->
      Array.iter
        (fun nest ->
          ignore (Dependence.legal_permutations nest);
          let accs = Loop_nest.accesses nest in
          List.iter
            (fun (i, j, _) ->
              if Dependence.pair_method nest accs.(i) accs.(j)
                 = Dependence.Closed_form
              then incr closed)
            (Dependence.pair_deps nest))
        (Program.nests prog))
    progs;
  Alcotest.(check int) "presburger checks" 0 ((P.stats ()).P.checks - before);
  Alcotest.(check bool) "closed-form pairs seen" true (!closed > 0)

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_feasibility_oracle;
      prop_range_oracle;
      prop_deps_oracle;
      prop_legality_oracle;
      prop_uniform_oracle;
      prop_uniform_matches_omega;
    ]

let () =
  Alcotest.run "presburger"
    [
      ( "engine",
        [
          Alcotest.test_case "equality gcd refutation" `Quick test_equality_gcd;
          Alcotest.test_case "integer tightening" `Quick test_integer_tightening;
          Alcotest.test_case "dark shadow and splintering" `Quick
            test_dark_shadow_splinter;
          Alcotest.test_case "range extrema" `Quick test_range;
        ] );
      ( "uniform",
        [
          Alcotest.test_case "generator reaches both methods" `Quick
            test_uniform_generator_covers_both_methods;
          Alcotest.test_case "overflow guard keeps the omega verdict" `Quick
            test_overflow_guard;
        ] );
      ("oracles", props);
      ( "goldens",
        [
          Alcotest.test_case "suite legal-order counts" `Quick
            test_suite_legal_order_goldens;
          Alcotest.test_case "scale family gains legal orders" `Quick
            test_scale_gains_legal_orders;
          Alcotest.test_case "closed form decides every suite pair" `Quick
            test_closed_form_coverage;
          Alcotest.test_case "objective never worse than GCD era" `Slow
            test_objective_never_worse;
        ] );
    ]
