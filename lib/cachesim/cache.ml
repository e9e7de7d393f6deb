type geometry = { size_bytes : int; assoc : int; line_bytes : int }

let is_pow2 x = x > 0 && x land (x - 1) = 0

let geometry ~size_bytes ~assoc ~line_bytes =
  if not (is_pow2 size_bytes && is_pow2 assoc && is_pow2 line_bytes) then
    invalid_arg "Cache.geometry: sizes must be positive powers of two";
  if size_bytes < assoc * line_bytes then
    invalid_arg "Cache.geometry: capacity below one set";
  { size_bytes; assoc; line_bytes }
