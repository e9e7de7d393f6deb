module Program = Mlo_ir.Program
module Nest_summary = Mlo_layout.Nest_summary

let is_identity order =
  let id = ref true in
  Array.iteri (fun i x -> if i <> x then id := false) order;
  !id

let restructure prog lookup =
  let summary = Nest_summary.of_program prog in
  let nests =
    Array.to_list
      (Array.mapi
         (fun i nest ->
           let order = Nest_summary.best_order (Nest_summary.nest summary i) lookup in
           if is_identity order then nest else Mlo_ir.Loop_nest.permute nest order)
         (Program.nests prog))
  in
  let arrays = Array.to_list (Program.arrays prog) in
  Program.make ~name:(Program.name prog) arrays nests
