type t = {
  left : int;
  right : int;
  bits : Bytes.t; (* row-major left x right *)
  lsup : int array;
  rsup : int array;
  mutable pairs : int;
  mutable memo_transpose : t option;
      (* cached transposed snapshot; invalidated by add *)
}

let create ~left ~right =
  if left <= 0 || right <= 0 then invalid_arg "Relation.create: empty domain";
  {
    left;
    right;
    bits = Bytes.make (((left * right) + 7) / 8) '\000';
    lsup = Array.make left 0;
    rsup = Array.make right 0;
    pairs = 0;
    memo_transpose = None;
  }

let bit_index t l r = (l * t.right) + r

let mem t l r =
  l >= 0 && l < t.left && r >= 0 && r < t.right
  &&
  let i = bit_index t l r in
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t l r =
  if l < 0 || l >= t.left || r < 0 || r >= t.right then
    invalid_arg "Relation.add: out of range";
  if not (mem t l r) then begin
    let i = bit_index t l r in
    let w = i lsr 3 and b = i land 7 in
    Bytes.unsafe_set t.bits w
      (Char.chr (Char.code (Bytes.unsafe_get t.bits w) lor (1 lsl b)));
    t.lsup.(l) <- t.lsup.(l) + 1;
    t.rsup.(r) <- t.rsup.(r) + 1;
    t.pairs <- t.pairs + 1;
    t.memo_transpose <- None
  end

let pair_count t = t.pairs
let left_support t l = t.lsup.(l)
let right_support t r = t.rsup.(r)

let supports_of_left t l =
  List.filter (fun r -> mem t l r) (List.init t.right Fun.id)

let fold f t init =
  let acc = ref init in
  for l = 0 to t.left - 1 do
    for r = 0 to t.right - 1 do
      if mem t l r then acc := f l r !acc
    done
  done;
  !acc

let transpose t =
  match t.memo_transpose with
  | Some t' -> t'
  | None ->
    let t' = create ~left:t.right ~right:t.left in
    ignore (fold (fun l r () -> add t' r l) t ());
    t.memo_transpose <- Some t';
    t'

let copy t =
  {
    left = t.left;
    right = t.right;
    bits = Bytes.copy t.bits;
    lsup = Array.copy t.lsup;
    rsup = Array.copy t.rsup;
    pairs = t.pairs;
    memo_transpose = None;
  }

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  ignore
    (fold
       (fun l r () ->
         if not !first then Format.fprintf ppf ", ";
         Format.fprintf ppf "(%d,%d)" l r;
         first := false)
       t ());
  Format.fprintf ppf "}"
