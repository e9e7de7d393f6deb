(* Dense, cache-friendly view of a binary constraint network.

   The hashtable-of-relations representation (Network) is convenient to
   build incrementally but costly to query: every consistency check
   allocates an (i, j) tuple key, hashes it, and probes a byte-packed
   bitmap.  The compiled view lowers the network into flat arrays:

   - [handle]: an n x n matrix of directed constraint handles, both
     orientations precomputed, so no transpose is ever taken on the hot
     path and [allowed] is two array reads and a bit test;
   - [rows]: per (handle, value) support rows as int-word bitsets in the
     Bitset word layout, so forward checking prunes a whole neighbour
     domain with word-wise [land]/popcount and AC-2001 finds supports by
     scanning words;
   - [supcnt]: per (handle, value) support popcounts, read in O(1) by the
     least-constraining value ordering;
   - [neighbors]: int arrays instead of sorted lists.

   Construction lives in {!Network.compile_vars}, which builds the view
   of a whole network or of one of its components; this module only
   defines the representation and its read-only operations. *)

type t = {
  n : int;
  dom_size : int array;
  neighbors : int array array; (* ascending, mirrors Network.neighbors *)
  handle : int array; (* (i * n + j) -> directed handle, or -1 *)
  rows : Bitset.row array array; (* rows.(h).(vi): supports over dom(j) *)
  supcnt : int array array; (* supcnt.(h).(vi) = popcount rows.(h).(vi) *)
}

let make ~dom_size ~neighbors ~handle ~rows ~supcnt =
  { n = Array.length dom_size; dom_size; neighbors; handle; rows; supcnt }

let num_vars t = t.n
let domain_size t i = t.dom_size.(i)
let neighbors t i = t.neighbors.(i)
let degree t i = Array.length t.neighbors.(i)

let handle t i j = Array.unsafe_get t.handle ((i * t.n) + j)
let constrained t i j = i <> j && handle t i j >= 0
let num_handles t = Array.length t.rows

let row t h vi = t.rows.(h).(vi)

let allowed t i vi j vj =
  let h = handle t i j in
  h < 0 || Bitset.row_mem (Array.unsafe_get t.rows h).(vi) vj

let support_count t i vi j =
  let h = handle t i j in
  if h < 0 then t.dom_size.(j) else t.supcnt.(h).(vi)

let verify t a =
  if Array.length a <> t.n then
    invalid_arg "Compiled.verify: assignment length differs from variable count";
  Array.iteri
    (fun i v ->
      if v < 0 || v >= t.dom_size.(i) then
        invalid_arg "Compiled.verify: value index out of range")
    a;
  let ok = ref true in
  for i = 0 to t.n - 1 do
    let nbrs = t.neighbors.(i) in
    for k = 0 to Array.length nbrs - 1 do
      let j = nbrs.(k) in
      if j > i && not (allowed t i a.(i) j a.(j)) then ok := false
    done
  done;
  !ok
