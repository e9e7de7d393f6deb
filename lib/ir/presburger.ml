(* Omega-test integer linear feasibility.  See the .mli for the
   algorithm outline; this file keeps the classic structure: normalize,
   eliminate equalities, then Fourier-Motzkin with dark-shadow
   tightening and splintering as the integer-exactness fallback.  Every
   coefficient and constant is computed with Intvec's checked
   operators, so a result that does not fit an [int] raises
   [Intvec.Overflow] instead of deciding a wrapped system. *)

module Intvec = Mlo_linalg.Intvec

let neg x = Intvec.(0 -! x)

type op = Geq | Eq

type cstr = { op : op; coeffs : int array; const : int }

type system = { nvars : int; cstrs : cstr list }

let geq coeffs const = { op = Geq; coeffs = Array.copy coeffs; const }

let leq coeffs const =
  { op = Geq; coeffs = Array.map neg coeffs; const = neg const }

let eq coeffs const = { op = Eq; coeffs = Array.copy coeffs; const }

let unit_coeffs nvars i v =
  let c = Array.make nvars 0 in
  c.(i) <- v;
  c

let between ~nvars i ~lo ~hi =
  [ { op = Geq; coeffs = unit_coeffs nvars i 1; const = neg lo };
    { op = Geq; coeffs = unit_coeffs nvars i (-1); const = hi } ]

let check_width nvars c =
  if Array.length c.coeffs <> nvars then
    invalid_arg "Presburger: constraint width does not match nvars"

let make ~nvars cstrs =
  List.iter (check_width nvars) cstrs;
  { nvars; cstrs }

let add sys cstrs =
  List.iter (check_width sys.nvars) cstrs;
  { sys with cstrs = cstrs @ sys.cstrs }

(* ------------------------------------------------------------------ *)
(* Stats *)

let checks_c = Atomic.make 0
let elims_c = Atomic.make 0
let splits_c = Atomic.make 0
let depth_c = Atomic.make 0

type stats = {
  checks : int;
  eliminations : int;
  splits : int;
  max_split_depth : int;
}

let stats () =
  {
    checks = Atomic.get checks_c;
    eliminations = Atomic.get elims_c;
    splits = Atomic.get splits_c;
    max_split_depth = Atomic.get depth_c;
  }

let note_depth d =
  let rec go () =
    let cur = Atomic.get depth_c in
    if d > cur && not (Atomic.compare_and_set depth_c cur d) then go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Arithmetic helpers *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Floor division/modulo (OCaml's (/) truncates toward zero). *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let coeffs_gcd c = Array.fold_left (fun g a -> gcd g a) 0 c

let all_zero c = Array.for_all (fun a -> a = 0) c

(* Symmetric residue of [b] modulo [m]: congruent to [b], magnitude at
   most [m/2].  For [|a| = m-1] this is [-sign a], which is what makes
   the mod-elimination substitution produce a unit coefficient. *)
let mhat b m =
  let r = Intvec.((b mod m) +! m) mod m in
  if Intvec.(2 *! r) >= m then r - m else r

exception Infeasible

(* ------------------------------------------------------------------ *)
(* Normalization.

   Equalities: divide by the coefficient gcd; a constant the gcd does
   not divide refutes the system.  Inequalities: divide and floor the
   constant (integer tightening).  Trivial constraints are dropped or
   refute.  Raises [Infeasible]. *)

let norm_eq c =
  if all_zero c.coeffs then if c.const = 0 then None else raise Infeasible
  else
    let g = coeffs_gcd c.coeffs in
    if g = 1 then Some c
    else if c.const mod g <> 0 then raise Infeasible
    else
      Some
        {
          c with
          coeffs = Array.map (fun a -> a / g) c.coeffs;
          const = c.const / g;
        }

let norm_geq c =
  if all_zero c.coeffs then if c.const >= 0 then None else raise Infeasible
  else
    let g = coeffs_gcd c.coeffs in
    if g = 1 then Some c
    else
      Some
        {
          c with
          coeffs = Array.map (fun a -> a / g) c.coeffs;
          const = fdiv c.const g;
        }

(* Dedup inequalities with identical coefficient vectors: the smallest
   constant is the strongest ([c.x >= -k], larger [k] is weaker). *)
let dedup_geqs geqs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key = Array.to_list c.coeffs in
      match Hashtbl.find_opt tbl key with
      | Some prev when prev.const <= c.const -> ()
      | _ -> Hashtbl.replace tbl key c)
    geqs;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []

(* ------------------------------------------------------------------ *)
(* Core recursion. *)

let substitute ~k ~sign ~coeffs ~const d =
  (* [sign * x_k + coeffs.x + const = 0] with [coeffs.(k) = 0] defines
     [x_k = -sign * (coeffs.x + const)]; eliminate [x_k] from [d]. *)
  let dk = d.coeffs.(k) in
  if dk = 0 then d
  else
    let f = Intvec.(0 -! (sign *! dk)) in
    let cs =
      Array.mapi
        (fun i a -> if i = k then 0 else Intvec.(a +! (f *! coeffs.(i))))
        d.coeffs
    in
    { d with coeffs = cs; const = Intvec.(d.const +! (f *! const)) }

let append_var c = { c with coeffs = Array.append c.coeffs [| 0 |] }

let rec solve depth nvars eqs geqs =
  match
    let eqs = List.filter_map norm_eq eqs in
    (eqs, geqs)
  with
  | exception Infeasible -> false
  | [], geqs -> solve_geqs depth nvars geqs
  | eqs, geqs -> solve_eq depth nvars eqs geqs

(* Eliminate one equality, preferring a variable with a unit
   coefficient; otherwise shrink coefficients via the symmetric-mod
   substitution until a unit appears. *)
and solve_eq depth nvars eqs geqs =
  (* Pick the equality/variable with the smallest nonzero |coeff|. *)
  let best = ref None in
  List.iter
    (fun e ->
      Array.iteri
        (fun i a ->
          if a <> 0 then
            match !best with
            | Some (_, _, m) when m <= abs a -> ()
            | _ -> best := Some (e, i, abs a))
        e.coeffs)
    eqs;
  match !best with
  | None -> assert false (* norm_eq drops all-zero equalities *)
  | Some (e, k, m) when m = 1 ->
      Atomic.incr elims_c;
      let sign = e.coeffs.(k) in
      let coeffs = Array.mapi (fun i a -> if i = k then 0 else a) e.coeffs in
      let sub = substitute ~k ~sign ~coeffs ~const:e.const in
      let removed = ref false in
      let eqs =
        List.filter_map
          (fun d ->
            if (not !removed) && d == e then begin
              removed := true;
              None
            end
            else Some (sub d))
          eqs
      in
      solve depth nvars eqs (List.map sub geqs)
  | Some (e, k, m) ->
      (* x_k's coefficient has magnitude m >= 2 everywhere: introduce a
         fresh variable s and the derived equality
           sum_i mhat(a_i) x_i - (m+1) s + mhat(c) = 0
         whose x_k coefficient is -sign(a_k) (a unit), because
         |a_k| = (m+1) - 1.  Every integer solution extends with the
         unique integer s, so feasibility is preserved. *)
      ignore k;
      let md = Intvec.(m +! 1) in
      let derived =
        let cs = Array.make (nvars + 1) 0 in
        Array.iteri (fun i a -> cs.(i) <- mhat a md) e.coeffs;
        cs.(nvars) <- neg md;
        { op = Eq; coeffs = cs; const = mhat e.const md }
      in
      let eqs = List.map append_var eqs in
      let geqs = List.map append_var geqs in
      solve depth (nvars + 1) (derived :: eqs) geqs

(* Fourier-Motzkin over the remaining inequalities. *)
and solve_geqs depth nvars geqs =
  match List.filter_map norm_geq geqs with
  | exception Infeasible -> false
  | [] -> true
  | geqs -> (
      let geqs = dedup_geqs geqs in
      (* Occurrence counts per variable. *)
      let lower = Array.make nvars 0 and upper = Array.make nvars 0 in
      List.iter
        (fun c ->
          Array.iteri
            (fun i a ->
              if a > 0 then lower.(i) <- lower.(i) + 1
              else if a < 0 then upper.(i) <- upper.(i) + 1)
            c.coeffs)
        geqs;
      (* A variable bounded on one side only projects out exactly by
         dropping its constraints. *)
      let one_sided = ref (-1) in
      for i = nvars - 1 downto 0 do
        if lower.(i) + upper.(i) > 0 && (lower.(i) = 0 || upper.(i) = 0) then
          one_sided := i
      done;
      if !one_sided >= 0 then (
        Atomic.incr elims_c;
        let k = !one_sided in
        solve_geqs depth nvars
          (List.filter (fun c -> c.coeffs.(k) = 0) geqs))
      else
        (* Choose the cheapest two-sided variable, preferring ones
           whose elimination is exact (all lower or all upper
           coefficients are units). *)
        let best = ref None in
        for i = 0 to nvars - 1 do
          if lower.(i) > 0 then begin
            let max_l = ref 0 and max_u = ref 0 in
            List.iter
              (fun c ->
                let a = c.coeffs.(i) in
                if a > 0 then max_l := max !max_l a
                else if a < 0 then max_u := max !max_u (neg a))
              geqs;
            let exact = !max_l = 1 || !max_u = 1 in
            let cost = lower.(i) * upper.(i) in
            match !best with
            | Some (_, e, c, _) when (e && not exact) || (e = exact && c <= cost)
              ->
                ()
            | _ -> best := Some (i, exact, cost, !max_u)
          end
        done;
        match !best with
        | None -> true (* no variable occurs: constants already checked *)
        | Some (k, exact, _, max_u) ->
            Atomic.incr elims_c;
            let rest = List.filter (fun c -> c.coeffs.(k) = 0) geqs in
            let lowers = List.filter (fun c -> c.coeffs.(k) > 0) geqs in
            let uppers = List.filter (fun c -> c.coeffs.(k) < 0) geqs in
            let combine ~dark l u =
              let a = l.coeffs.(k) and b = neg u.coeffs.(k) in
              let cs =
                Array.mapi
                  (fun i al -> Intvec.((b *! al) +! (a *! u.coeffs.(i))))
                  l.coeffs
              in
              let tight = if dark then Intvec.((a - 1) *! (b - 1)) else 0 in
              let const = Intvec.((b *! l.const) +! (a *! u.const) -! tight) in
              { op = Geq; coeffs = cs; const }
            in
            let combos ~dark =
              List.concat_map
                (fun l -> List.map (fun u -> combine ~dark l u) uppers)
                lowers
            in
            if exact then solve_geqs depth nvars (combos ~dark:false @ rest)
            else if solve_geqs depth nvars (combos ~dark:true @ rest) then true
            else if not (solve_geqs depth nvars (combos ~dark:false @ rest))
            then false
            else splinter depth nvars geqs k lowers max_u)

(* Dark shadow infeasible, real shadow feasible: any integer solution
   must sit within Pugh's gap above some lower bound on x_k.  Case
   split on a.x_k = -(R + c) + j for each lower bound and each j in
   the finite window, re-solving the full system with that equality. *)
and splinter depth nvars geqs k lowers max_u =
  note_depth (depth + 1);
  List.exists
    (fun l ->
      let a = l.coeffs.(k) in
      let jmax = Intvec.((a *! max_u) -! a -! max_u) / max_u in
      let rec try_j j =
        if j > jmax then false
        else begin
          Atomic.incr splits_c;
          let const = Intvec.(l.const -! j) in
          let eq = { op = Eq; coeffs = l.coeffs; const } in
          if solve (depth + 1) nvars [ eq ] geqs then true else try_j (j + 1)
        end
      in
      try_j 0)
    lowers

(* ------------------------------------------------------------------ *)

let feasible sys =
  Atomic.incr checks_c;
  let eqs, geqs = List.partition (fun c -> c.op = Eq) sys.cstrs in
  solve 0 sys.nvars eqs geqs

let range sys ~coeffs ~lo ~hi =
  if Array.length coeffs <> sys.nvars then
    invalid_arg "Presburger.range: coefficient width does not match nvars";
  if not (feasible sys) then None
  else begin
    (* Smallest v in [lo, hi] with feasible(form <= v). *)
    let rec bs_min l h =
      if l >= h then l
      else
        let mid = Intvec.(l +! ((h -! l) / 2)) in
        if feasible (add sys [ leq coeffs (neg mid) ]) then bs_min l mid
        else bs_min (mid + 1) h
    in
    (* Largest v in [lo, hi] with feasible(form >= v). *)
    let rec bs_max l h =
      if l >= h then l
      else
        let mid = Intvec.(l +! ((h -! l +! 1) / 2)) in
        if feasible (add sys [ geq coeffs (neg mid) ]) then bs_max mid h
        else bs_max l (mid - 1)
    in
    Some (bs_min lo hi, bs_max lo hi)
  end
