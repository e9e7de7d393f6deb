(* The scan the search kernel ran before its bucket queue, kept as the
   rule's reference (see selection_reference.mli). *)

open Mlo_csp

let shift_degrees comp un_deg var delta =
  let nbrs = Compiled.neighbors comp var in
  for k = 0 to Array.length nbrs - 1 do
    let j = nbrs.(k) in
    un_deg.(j) <- un_deg.(j) - delta
  done

let most_constraining comp ~level_of ~un_deg domains =
  let full = Array.length domains = 0 in
  let best = ref (-1) in
  let b0 = ref 0 and b1 = ref 0 and b2 = ref 0 in
  for v = 0 to Compiled.num_vars comp - 1 do
    if level_of.(v) < 0 then begin
      let s0 = un_deg.(v) in
      if !best < 0 || s0 >= !b0 then begin
        let s1 = Compiled.degree comp v
        and s2 =
          if full then -Compiled.domain_size comp v
          else -Bitset.count domains.(v)
        in
        if
          !best < 0 || s0 > !b0
          || (s0 = !b0 && (s1 > !b1 || (s1 = !b1 && s2 > !b2)))
        then begin
          best := v;
          b0 := s0;
          b1 := s1;
          b2 := s2
        end
      end
    end
  done;
  !best
