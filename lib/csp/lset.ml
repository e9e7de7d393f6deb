(* Word-mask level sets (see lset.mli): the conflict rows and the carry
   buffer of the search kernel, and the rows of its most-constraining
   queue. *)

let bits = 63
let words n = ((max 1 n) + bits - 1) / bits
let make_mat rows n = Array.make (max 1 (rows * words n)) 0
let clear s off lw = Array.fill s off lw 0

let add s off l =
  let k = off + (l / bits) in
  s.(k) <- s.(k) lor (1 lsl (l mod bits))

let remove s off l =
  let k = off + (l / bits) in
  s.(k) <- s.(k) land lnot (1 lsl (l mod bits))

let copy src soff dst doff lw = Array.blit src soff dst doff lw

(* [dst := dst U (src /\ [0, limit))] *)
let union_below src soff dst doff limit lw =
  let w = limit / bits in
  let last = min w (lw - 1) in
  for k = 0 to last do
    let m = if k = w then (1 lsl (limit mod bits)) - 1 else -1 in
    dst.(doff + k) <- dst.(doff + k) lor (src.(soff + k) land m)
  done

(* in place: drop members >= limit *)
let keep_below s off limit lw =
  let w = limit / bits in
  if w < lw then begin
    s.(off + w) <- s.(off + w) land ((1 lsl (limit mod bits)) - 1);
    Array.fill s (off + w + 1) (lw - w - 1) 0
  end

let top_bit w =
  let r = ref 0 and w = ref w in
  if !w lsr 32 <> 0 then (r := !r + 32; w := !w lsr 32);
  if !w lsr 16 <> 0 then (r := !r + 16; w := !w lsr 16);
  if !w lsr 8 <> 0 then (r := !r + 8; w := !w lsr 8);
  if !w lsr 4 <> 0 then (r := !r + 4; w := !w lsr 4);
  if !w lsr 2 <> 0 then (r := !r + 2; w := !w lsr 2);
  if !w lsr 1 <> 0 then incr r;
  !r

(* highest member, or -1 when empty; a loop, not a local recursion,
   so that no closure is built per call *)
let max_elt s off lw =
  let k = ref (lw - 1) in
  while !k >= 0 && s.(off + !k) = 0 do decr k done;
  if !k < 0 then -1 else (!k * bits) + top_bit s.(off + !k)

(* lowest member >= l, or -1 when none *)
let next_elt s off lw l =
  let k = ref (l / bits) in
  let w = ref (if !k < lw then s.(off + !k) land (-1 lsl (l mod bits)) else 0) in
  while !w = 0 && !k < lw - 1 do
    incr k;
    w := s.(off + !k)
  done;
  if !w = 0 then -1 else (!k * bits) + top_bit (!w land - !w)

let min_elt s off lw = next_elt s off lw 0

let iter f s off lw =
  for k = 0 to lw - 1 do
    let w = ref s.(off + k) in
    while !w <> 0 do
      let b = !w land - !w in
      f ((k * bits) + top_bit b);
      w := !w land lnot b
    done
  done
