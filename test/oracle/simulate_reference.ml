module Program = Mlo_ir.Program
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Address_map = Mlo_cachesim.Address_map
module Hierarchy = Mlo_cachesim.Hierarchy

let run ?(config = Hierarchy.paper_config) prog ~layouts =
  let amap = Address_map.build prog ~layouts in
  let hier = Lru_reference.create config in
  let trips = ref 0 in
  Array.iter
    (fun nest ->
      let accesses = Loop_nest.accesses nest in
      (* precompute per-access array names to avoid re-allocating *)
      let names = Array.map Access.array_name accesses in
      Loop_nest.iter nest (fun iter ->
          incr trips;
          Array.iteri
            (fun k a ->
              let element = Access.element_at a iter in
              let addr = Address_map.address amap names.(k) element in
              Lru_reference.access hier addr)
            accesses))
    (Program.nests prog);
  {
    Mlo_cachesim.Simulate.counters = Lru_reference.counters hier;
    footprint_bytes = Address_map.footprint_bytes amap;
    trip_count = !trips;
  }
