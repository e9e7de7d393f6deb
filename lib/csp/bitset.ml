(* Fixed-capacity bitsets backed by int words, 32 bits per word.

   32 (not Sys.int_size - 1) keeps word/bit indexing a shift and a mask
   instead of a division by 63, and every realistic layout domain in this
   code base fits a single word anyway.  The word layout is shared with
   the raw support rows of the compiled constraint network (see
   {!Compiled}): bit [v] of value [v] lives in word [v lsr 5] at bit
   position [v land 31]. *)

type t = { mutable card : int; words : int array; capacity : int }

let bits_per_word = 32
let words_for n = (n + bits_per_word - 1) / bits_per_word

(* SWAR popcount of a 32-bit value held in an OCaml int. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (* OCaml ints are wider than 32 bits: product bytes above bit 31 are
     not truncated away, so isolate the accumulator byte explicitly *)
  ((x * 0x01010101) lsr 24) land 0xff

(* Number of trailing zeros of a non-zero 32-bit value. *)
let ntz x = popcount ((x land -x) - 1)

let create_empty n =
  if n < 0 then invalid_arg "Bitset.create_empty: negative capacity";
  { card = 0; words = Array.make (words_for n) 0; capacity = n }

let full_words n =
  let w = Array.make (words_for n) 0 in
  let full = words_for n in
  for k = 0 to full - 1 do
    let bits = min bits_per_word (n - (k * bits_per_word)) in
    w.(k) <- (1 lsl bits) - 1
  done;
  w

let create_full n =
  if n < 0 then invalid_arg "Bitset.create_full: negative capacity";
  { card = n; words = full_words n; capacity = n }

let capacity t = t.capacity

let mem t i =
  i >= 0 && i < t.capacity
  && Array.unsafe_get t.words (i lsr 5) land (1 lsl (i land 31)) <> 0

let add t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset.add: out of range";
  let w = i lsr 5 and b = 1 lsl (i land 31) in
  if t.words.(w) land b = 0 then begin
    t.words.(w) <- t.words.(w) lor b;
    t.card <- t.card + 1
  end

let remove t i =
  if i >= 0 && i < t.capacity then begin
    let w = i lsr 5 and b = 1 lsl (i land 31) in
    if t.words.(w) land b <> 0 then begin
      t.words.(w) <- t.words.(w) land lnot b;
      t.card <- t.card - 1
    end
  end

let count t = t.card
let is_empty t = t.card = 0

let copy t =
  { card = t.card; words = Array.copy t.words; capacity = t.capacity }

let blit ~src ~dst =
  if src.capacity <> dst.capacity then invalid_arg "Bitset.blit: capacity mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words);
  dst.card <- src.card

let iter f t =
  for k = 0 to Array.length t.words - 1 do
    let bits = ref t.words.(k) in
    while !bits <> 0 do
      let b = !bits land - !bits in
      f ((k * bits_per_word) + ntz !bits);
      bits := !bits lxor b
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_array t =
  let a = Array.make t.card 0 in
  let k = ref 0 in
  iter
    (fun i ->
      a.(!k) <- i;
      incr k)
    t;
  a

(* [iter] spelled out so callers on a hot path pay no closure; writes the
   members ascending into [a] starting at [off], returns how many. *)
let fill_array t a off =
  let k = ref off in
  for w = 0 to Array.length t.words - 1 do
    let bits = ref (Array.unsafe_get t.words w) in
    while !bits <> 0 do
      a.(!k) <- (w * bits_per_word) + ntz !bits;
      incr k;
      bits := !bits land (!bits - 1)
    done
  done;
  !k - off

let choose t =
  let rec go k =
    if k >= Array.length t.words then None
    else if t.words.(k) <> 0 then Some ((k * bits_per_word) + ntz t.words.(k))
    else go (k + 1)
  in
  go 0

let equal a b =
  a.capacity = b.capacity && a.card = b.card && a.words = b.words

(* ---- raw support rows (same word layout, borrowed storage) ---- *)

type row = int array

let row_make n = Array.make (words_for n) 0
let row_add row i = row.(i lsr 5) <- row.(i lsr 5) lor (1 lsl (i land 31))

let row_mem row i =
  Array.unsafe_get row (i lsr 5) land (1 lsl (i land 31)) <> 0

let row_count row =
  let c = ref 0 in
  for k = 0 to Array.length row - 1 do
    c := !c + popcount row.(k)
  done;
  !c

let row_subset a b =
  if Array.length a <> Array.length b then
    invalid_arg "Bitset.row_subset: row width mismatch";
  let rec go k =
    k = Array.length a
    || (Array.unsafe_get a k land lnot (Array.unsafe_get b k) = 0 && go (k + 1))
  in
  go 0

let check_row t row =
  if Array.length row <> Array.length t.words then
    invalid_arg "Bitset: row width mismatch"

let inter_count t row =
  check_row t row;
  let c = ref 0 in
  for k = 0 to Array.length row - 1 do
    c := !c + popcount (Array.unsafe_get t.words k land Array.unsafe_get row k)
  done;
  !c

let inter_exists t row =
  check_row t row;
  let rec go k =
    k < Array.length row
    && (Array.unsafe_get t.words k land Array.unsafe_get row k <> 0
        || go (k + 1))
  in
  go 0

let inter_choose t row =
  check_row t row;
  let rec go k =
    if k >= Array.length row then None
    else
      let w = Array.unsafe_get t.words k land Array.unsafe_get row k in
      if w <> 0 then Some ((k * bits_per_word) + ntz w) else go (k + 1)
  in
  go 0

let iter_diff f t row =
  check_row t row;
  for k = 0 to Array.length row - 1 do
    let bits = ref (Array.unsafe_get t.words k land lnot (Array.unsafe_get row k)) in
    while !bits <> 0 do
      let b = !bits land - !bits in
      f ((k * bits_per_word) + ntz !bits);
      bits := !bits lxor b
    done
  done

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun i ->
      if not !first then Format.fprintf ppf ",";
      Format.fprintf ppf "%d" i;
      first := false)
    t;
  Format.fprintf ppf "}"
