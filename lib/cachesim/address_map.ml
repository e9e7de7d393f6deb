module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Transform = Mlo_layout.Transform

type entry = { base : int; transform : Transform.t; elem_size : int }

type t = { entries : (string, entry) Hashtbl.t; footprint : int }

let default_align = 64
let round_up x align = (x + align - 1) / align * align

let transform_of info layout =
  let name = Array_info.name info and rank = Array_info.rank info in
  let layout =
    match layout with
    | Some l ->
      if Layout.rank l <> rank then
        invalid_arg (Printf.sprintf "Address_map.build: layout rank for %s" name);
      l
    | None -> Layout.row_major rank
  in
  Transform.make layout ~extents:(Array_info.extents info)

let build ?(align = default_align) prog ~layouts =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Address_map.build: align must be a positive power of two";
  let entries = Hashtbl.create 16 in
  let cursor = ref 0 in
  Array.iter
    (fun info ->
      let name = Array_info.name info in
      let transform = transform_of info (layouts name) in
      let elem_size = Array_info.elem_size info in
      let base = round_up !cursor align in
      cursor := base + (Transform.footprint_cells transform * elem_size);
      Hashtbl.replace entries name { base; transform; elem_size })
    (Program.arrays prog);
  { entries; footprint = !cursor }

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Address_map: unknown array %S (not in the program \
                       this map was built from)" name)

let address t name idx =
  let e = entry t name in
  e.base + (Transform.cell_index e.transform idx * e.elem_size)

let footprint_bytes t = t.footprint
let base t name = (entry t name).base
let transform t name = (entry t name).transform
let elem_size t name = (entry t name).elem_size
