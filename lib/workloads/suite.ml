module Program = Mlo_ir.Program

let spec ~name ~description ~program ~sim_program ~candidates ~domain
    ~data_kb ~solution:(h, b, e) ~exec:(o, he, be, ee) =
  {
    Spec.name;
    description;
    program;
    sim_program;
    candidates;
    paper_domain_size = domain;
    paper_data_kb = data_kb;
    paper_solution =
      { Spec.heuristic_s = h; base_s = b; enhanced_s = e };
    paper_exec =
      {
        Spec.original_s = o;
        heuristic_exec_s = he;
        base_exec_s = be;
        enhanced_exec_s = ee;
      };
  }

(* ------------------------------------------------------------------ *)
(* MxM: D = A * B * C via temporary T1 (hand-built)                     *)
(* ------------------------------------------------------------------ *)

let mxm_program ~n =
  let init_t1, req0 = Kernels.fill ~name:"init_t1" ~n ~dst:"T1" in
  let mm1, req1 = Kernels.matmul ~name:"mm1" ~n ~c:"T1" ~a:"A" ~b:"B" in
  let init_d, req2 = Kernels.fill ~name:"init_d" ~n ~dst:"D" in
  let mm2, req3 = Kernels.matmul ~name:"mm2" ~n ~c:"D" ~a:"T1" ~b:"C" in
  let scale_d, req4 = Kernels.row_scale ~name:"scale_d" ~n ~dst:"D" in
  let arrays = Kernels.declare (req0 @ req1 @ req2 @ req3 @ req4) in
  Program.make ~name:"MxM" arrays [ init_t1; mm1; init_d; mm2; scale_d ]

let mxm () =
  let program = mxm_program ~n:245 in
  spec ~name:"MxM" ~description:"triple matrix multiplication"
    ~program
    ~sim_program:(mxm_program ~n:128)
    ~candidates:
      (Candidates.by_position program
         [ (3, Candidates.palette6); (2, Candidates.palette8) ])
    ~domain:34 ~data_kb:1173.56
    ~solution:(5.18, 36.62, 9.24)
    ~exec:(69.31, 28.33, 28.33, 28.33)

(* ------------------------------------------------------------------ *)
(* Generator-based workloads                                            *)
(* ------------------------------------------------------------------ *)

let generated params ~description ~domain ~data_kb ~solution ~exec =
  let program = Random_program.generate params in
  let sim_program =
    if params.Random_program.sim_extent = params.Random_program.extent then
      program
    else Random_program.generate_sim params
  in
  spec ~name:params.Random_program.name ~description ~program ~sim_program
    ~candidates:(Candidates.pad_to_domain program ~target:domain)
    ~domain ~data_kb ~solution ~exec

let med_im04 () =
  generated
    {
      Random_program.name = "Med-Im04";
      seed = 104;
      num_arrays = 52;
      num_nests = 100;
      extent = 64;
      sim_extent = 64;
      min_arrays_per_nest = 2;
      max_arrays_per_nest = 3;
      conflict_percent = 25;
      skew_percent = 55;
      temporal_percent = 30;
      group_size = 0;
      ref_conflict_percent = 0;
      nest_depth = 2;
      shift_nests = 0;
    }
    ~description:"medical image reconstruction" ~domain:258 ~data_kb:825.55
    ~solution:(7.14, 97.34, 12.22)
    ~exec:(204.27, 128.14, 82.55, 81.07)

let radar () =
  generated
    {
      Random_program.name = "Radar";
      seed = 7;
      num_arrays = 57;
      num_nests = 300;
      extent = 64;
      sim_extent = 64;
      min_arrays_per_nest = 2;
      max_arrays_per_nest = 3;
      conflict_percent = 30;
      skew_percent = 75;
      temporal_percent = 20;
      group_size = 0;
      ref_conflict_percent = 0;
      nest_depth = 2;
      shift_nests = 0;
    }
    ~description:"radar imaging" ~domain:422 ~data_kb:905.28
    ~solution:(11.33, 129.51, 53.81)
    ~exec:(192.44, 110.78, 83.92, 85.15)

let shape () =
  generated
    {
      Random_program.name = "Shape";
      seed = 656;
      num_arrays = 80;
      num_nests = 420;
      extent = 64;
      sim_extent = 64;
      min_arrays_per_nest = 2;
      max_arrays_per_nest = 3;
      conflict_percent = 35;
      skew_percent = 90;
      temporal_percent = 15;
      group_size = 0;
      ref_conflict_percent = 0;
      nest_depth = 2;
      shift_nests = 0;
    }
    ~description:"pattern recognition and shape analysis" ~domain:656
    ~data_kb:1284.06
    ~solution:(16.52, 197.17, 82.06)
    ~exec:(233.58, 140.30, 106.45, 106.45)

let track () =
  generated
    {
      Random_program.name = "Track";
      seed = 388;
      num_arrays = 47;
      num_nests = 360;
      extent = 64;
      sim_extent = 64;
      min_arrays_per_nest = 2;
      max_arrays_per_nest = 3;
      conflict_percent = 35;
      skew_percent = 90;
      temporal_percent = 15;
      group_size = 0;
      ref_conflict_percent = 0;
      nest_depth = 2;
      shift_nests = 0;
    }
    ~description:"visual tracking control" ~domain:388 ~data_kb:744.80
    ~solution:(10.09, 155.02, 68.50)
    ~exec:(231.00, 127.61, 97.28, 95.30)

(* The five by name, in Table-1 order: [by_name] builds only the one it
   names. *)
let paper =
  [
    ("Med-Im04", med_im04);
    ("MxM", mxm);
    ("Radar", radar);
    ("Shape", shape);
    ("Track", track);
  ]

let all () = List.map (fun (_, make) -> make ()) paper

(* ------------------------------------------------------------------ *)
(* Scale family                                                         *)
(* ------------------------------------------------------------------ *)

(* Synthetic throughput workloads, not paper reproductions: the paper
   columns are zeroed and the candidate set is whatever the nests
   demand (no padding to a published domain size). *)
let scale ?seed n =
  let params = Random_program.scale ?seed n in
  let program = Random_program.generate params in
  let sim_program = Random_program.generate_sim params in
  spec ~name:params.Random_program.name
    ~description:
      (Printf.sprintf "scale family: %d arrays, %d+ nests, ~%d components"
         n params.Random_program.num_nests
         ((n + max 1 params.Random_program.group_size - 1)
         / max 1 params.Random_program.group_size))
    ~program ~sim_program
    ~candidates:(fun _ -> [])
    ~domain:0 ~data_kb:0.
    ~solution:(0., 0., 0.)
    ~exec:(0., 0., 0., 0.)

(* ------------------------------------------------------------------ *)
(* Hard family                                                          *)
(* ------------------------------------------------------------------ *)

(* Phase-transition workloads for the conflict-driven solver bench:
   three-deep nests over windows of an array ring, half the references
   scrambled ({!Random_program.hard}).  Like the scale family these
   reproduce no paper numbers, so the paper columns are zeroed and the
   candidate set is whatever the nests demand. *)
let hard ?seed n =
  let params = Random_program.hard ?seed n in
  let program = Random_program.generate params in
  let sim_program = Random_program.generate_sim params in
  spec ~name:params.Random_program.name
    ~description:
      (Printf.sprintf
         "hard family: %d arrays, %d deep nests on the array ring, near \
          the phase transition"
         n params.Random_program.num_nests)
    ~program ~sim_program
    ~candidates:(fun _ -> [])
    ~domain:0 ~data_kb:0.
    ~solution:(0., 0., 0.)
    ~exec:(0., 0., 0., 0.)

let by_name name =
  let target = String.lowercase_ascii name in
  match
    List.find_opt
      (fun (n, _) -> String.equal (String.lowercase_ascii n) target)
      paper
  with
  | Some (_, make) -> make ()
  | None -> (
    (* "scale-N" / "hard-N" instantiate the synthetic families at N
       arrays *)
    match String.split_on_char '-' target with
    | [ "scale"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> scale n
      | Some _ | None -> raise Not_found)
    | [ "hard"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> hard n
      | Some _ | None -> raise Not_found)
    | _ -> raise Not_found)
