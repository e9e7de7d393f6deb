type t = {
  name : string;
  arrays : Array_info.t array;
  nests : Loop_nest.t array;
}

let make ~name arrays nests =
  if nests = [] then invalid_arg "Program.make: no loop nests";
  let names = List.map Array_info.name arrays in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Program.make: duplicate array names";
  let table = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace table (Array_info.name a) a) arrays;
  List.iter
    (fun nest ->
      Array.iter
        (fun acc ->
          match Hashtbl.find_opt table (Access.array_name acc) with
          | None ->
            invalid_arg
              (Printf.sprintf "Program.make: nest %s references undeclared array %s"
                 (Loop_nest.name nest) (Access.array_name acc))
          | Some info ->
            if Access.rank acc <> Array_info.rank info then
              invalid_arg
                (Printf.sprintf
                   "Program.make: access to %s has rank %d, array has rank %d"
                   (Access.array_name acc) (Access.rank acc)
                   (Array_info.rank info)))
        (Loop_nest.accesses nest))
    nests;
  { name; arrays = Array.of_list arrays; nests = Array.of_list nests }

let name t = t.name
let arrays t = Array.copy t.arrays
let nests t = Array.copy t.nests

let find_array t n =
  match Array.find_opt (fun a -> String.equal (Array_info.name a) n) t.arrays with
  | Some a -> a
  | None -> raise Not_found

let array_names t = Array.to_list (Array.map Array_info.name t.arrays)

let array_index t n =
  let rec go i =
    if i >= Array.length t.arrays then raise Not_found
    else if String.equal (Array_info.name t.arrays.(i)) n then i
    else go (i + 1)
  in
  go 0

let nests_touching t n =
  Array.to_list t.nests
  |> List.filter (fun nest -> List.mem n (Loop_nest.arrays_touched nest))

let data_size_bytes t =
  Array.fold_left (fun acc a -> acc + Array_info.size_bytes a) 0 t.arrays

let total_trip_count t =
  Array.fold_left (fun acc nest -> acc + Loop_nest.trip_count nest) 0 t.nests

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s@,@," t.name;
  Array.iter (fun a -> Format.fprintf ppf "%a@," Array_info.pp a) t.arrays;
  Array.iteri
    (fun i nest ->
      Format.fprintf ppf "@,// nest %d: %s@,%a" i (Loop_nest.name nest)
        Loop_nest.pp nest)
    t.nests;
  Format.fprintf ppf "@]"

module Live = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash p = Hashtbl.hash p.name
end)

let memo f =
  let table = Live.create 16 and lock = Mutex.create () in
  fun p ->
    Mutex.protect lock @@ fun () ->
    match Live.find_opt table p with
    | Some v -> v
    | None ->
      let v = f p in
      Live.replace table p v;
      v
