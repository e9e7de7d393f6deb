(** The five benchmarks of the paper's Table 1, as synthetic equivalents.

    MxM is the one benchmark whose structure the paper names precisely
    (triple matrix multiplication), so it is hand-built from kernels; the
    other four are instantiations of {!Random_program} whose parameters
    were tuned to land near the published total domain sizes and data
    sizes while exercising the access-pattern conflicts their application
    domains imply (reconstruction sweeps, transposed passes, distance
    transforms, tracking updates).  Substitution rationale: DESIGN.md
    Section 2. *)

val med_im04 : unit -> Spec.t
(** Medical image reconstruction: stencil-and-transpose mix,
    paper: domain 258, 825.55KB. *)

val mxm : unit -> Spec.t
(** Triple matrix multiplication [D = A * B * C] via a temporary,
    paper: domain 34, 1173.56KB. *)

val radar : unit -> Spec.t
(** Radar imaging: skewed sweeps, paper: domain 422, 905.28KB. *)

val shape : unit -> Spec.t
(** Pattern recognition / shape analysis: the largest network,
    paper: domain 656, 1284.06KB. *)

val track : unit -> Spec.t
(** Visual tracking control, paper: domain 388, 744.80KB. *)

val all : unit -> Spec.t list
(** The five, in Table-1 order. *)

val scale : ?seed:int -> int -> Spec.t
(** The scale family ({!Random_program.scale}) wrapped as a spec:
    synthetic component-rich programs at 10/100/1000+ arrays for
    throughput work, with zeroed paper columns (they reproduce nothing)
    and no candidate padding. *)

val hard : ?seed:int -> int -> Spec.t
(** The hard family ({!Random_program.hard}) wrapped as a spec: dense
    single-component networks near the satisfiability phase transition,
    for separating the learning solver from the plain backjumpers.
    Paper columns zeroed, no candidate padding. *)

val by_name : string -> Spec.t
(** Case-insensitive lookup ("mxm", "radar", ...).  Names of the form
    "scale-N" (e.g. "scale-100") and "hard-N" (e.g. "hard-20")
    instantiate the synthetic families at [N] arrays.  Raises
    [Not_found]. *)
