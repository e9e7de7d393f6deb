module Network = Mlo_csp.Network
module Bitset = Mlo_csp.Bitset
module Locality = Mlo_analysis.Locality
module Trace = Mlo_obs.Trace

type info = {
  before : int;
  after : int;
  per_array : (string * int) list;
  removed : (int * int * int) list;
  survivors : int array array;
}

let total i = i.before - i.after

(* [p1] is component-wise [<=] [p2] and somewhere [<] *)
let below (p1 : float array) (p2 : float array) =
  let le = ref true and lt = ref false and k = ref 0 in
  while !le && !k < Array.length p1 do
    let x = p1.(!k) and y = p2.(!k) in
    if x > y then le := false else if x < y then lt := true;
    incr k
  done;
  !le && !lt

let sum (p : float array) =
  let s = ref 0.0 in
  for k = 0 to Array.length p - 1 do
    s := !s +. p.(k)
  done;
  !s

let apply (b : Build.t) =
  let net = b.Build.network in
  let n = Network.num_vars net in
  let profiles =
    Trace.with_span ~cat:"analysis" "profile" @@ fun () ->
    let profile = Locality.profiler b.Build.program in
    Array.init n (fun i ->
        let name = Network.name net i in
        Array.map
          (fun layout -> profile ~array_name:name ~layout)
          (Network.domain net i))
  in
  Trace.with_span ~cat:"netgen" "prune-dominated" @@ fun () ->
  let keep = Array.init n (fun i -> Array.make (Network.domain_size net i) true) in
  let per_array = ref [] in
  let removals = ref [] in
  for i = 0 to n - 1 do
    let name = Network.name net i in
    let profiles = profiles.(i) in
    let d = Array.length profiles in
    (* A dominator's total is never larger: rounded addition is
       monotone, and every profile of one variable lists the same nests
       in the same order. *)
    let totals = Array.map sum profiles in
    (* the network's support rows of each constraint, seen from i *)
    let supports =
      Array.map (Network.supports net i) (Network.neighbors net i)
    in
    let dominates v1 v2 =
      totals.(v1) <= totals.(v2)
      && below profiles.(v1) profiles.(v2)
      && Array.for_all (fun sup -> Bitset.row_subset sup.(v2) sup.(v1)) supports
    in
    let removed = ref 0 in
    for v2 = 0 to d - 1 do
      let v1 = ref 0 in
      while keep.(i).(v2) && !v1 < d do
        if !v1 <> v2 && dominates !v1 v2 then begin
          keep.(i).(v2) <- false;
          incr removed
        end;
        incr v1
      done
    done;
    (* Record every removed value with a *kept* dominating witness for
       the certificate log.  The removal loop accepts any dominator;
       a kept one always exists because dominance is a strict partial
       order (follow dominators upward — the chain ends at a maximal,
       hence kept, value that dominates transitively). *)
    for v2 = 0 to d - 1 do
      if not keep.(i).(v2) then begin
        let w = ref (-1) in
        for v1 = d - 1 downto 0 do
          if keep.(i).(v1) && dominates v1 v2 then w := v1
        done;
        assert (!w >= 0);
        removals := (i, v2, !w) :: !removals
      end
    done;
    if !removed > 0 then per_array := (name, !removed) :: !per_array
  done;
  let before = Network.total_domain_size net in
  let pruned = Network.restrict_domains net keep in
  let after = Network.total_domain_size pruned in
  Trace.counter ~cat:"netgen" "dominance-pruned"
    [ ("values", float_of_int (before - after)) ];
  let survivors =
    Array.init n (fun i ->
        let kept = ref [] in
        for v = Array.length keep.(i) - 1 downto 0 do
          if keep.(i).(v) then kept := v :: !kept
        done;
        Array.of_list !kept)
  in
  ( { b with Build.network = pruned },
    {
      before;
      after;
      per_array =
        List.sort (fun (a, _) (b, _) -> String.compare a b) !per_array;
      removed = List.rev !removals;
      survivors;
    } )
