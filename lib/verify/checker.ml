module Network = Mlo_csp.Network

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* The relative tolerance of every cost comparison. *)
let eps = 1e-6
let tolerance x = eps *. Float.max 1.0 (Float.abs x)

(* ---- the propagation core ------------------------------------------ *)

(* The checker's one fixpoint: every variable's live values, revised
   against the raw relations ([Network.allowed]) along [nbrs] until no
   queued variable is left.  [check] runs it over every constraint with
   its nogood rules on top; [refutes] over the constraints it is
   given. *)
type 'a fixpoint = {
  net : 'a Network.t;
  dsize : int array;
  nbrs : int array array;
  live : bool array array;
  cnt : int array;
  queue : int Queue.t;
  queued : bool array;
}

let fixpoint net nbrs =
  let dsize = Array.init (Network.num_vars net) (Network.domain_size net) in
  {
    net;
    dsize;
    nbrs;
    live = Array.map (fun d -> Array.make d true) dsize;
    cnt = Array.copy dsize;
    queue = Queue.create ();
    queued = Array.make (Array.length dsize) false;
  }

let enqueue fx i =
  if not fx.queued.(i) then begin
    fx.queued.(i) <- true;
    Queue.add i fx.queue
  end

(* Kill the live value [v] of [i] and queue [i]; true when that empties
   [i]'s domain. *)
let kill fx i v =
  fx.live.(i).(v) <- false;
  fx.cnt.(i) <- fx.cnt.(i) - 1;
  enqueue fx i;
  fx.cnt.(i) = 0

(* Pop queued variables until none is left: each popped [j]'s neighbours
   lose, through [remove], every live value without a live support in
   [j], then [after j] runs. *)
let propagate fx ~remove ~after =
  while not (Queue.is_empty fx.queue) do
    let j = Queue.pop fx.queue in
    fx.queued.(j) <- false;
    let lj = fx.live.(j) and nbrs = fx.nbrs.(j) in
    for k = 0 to Array.length nbrs - 1 do
      let i = nbrs.(k) in
      let li = fx.live.(i) in
      for v = 0 to fx.dsize.(i) - 1 do
        if li.(v) then begin
          let sup = ref false in
          for w = 0 to fx.dsize.(j) - 1 do
            if (not !sup) && lj.(w) && Network.allowed fx.net i v j w then
              sup := true
          done;
          if not !sup then remove i v
        end
      done
    done;
    after j
  done

(* The checker keeps one mutable "root" state: the fixpoint above, with
   accepted-nogood rules evaluated as each variable is popped.  Step
   checks that need to reason hypothetically — "assume these literals,
   does propagation conflict?" — run on the same state through an undo
   trail, so nothing is copied on the hot path. *)

let check ?costs net (proof : Proof.t) =
  let n = Network.num_vars net in
  try
    (* ---- header ---------------------------------------------------- *)
    let h = proof.Proof.header in
    if Array.length h.Proof.names <> n || Array.length h.Proof.domain_sizes <> n
    then reject "header: variable count mismatch (%d in proof, %d in network)"
        (Array.length h.Proof.names) n;
    let fx = fixpoint net (Array.init n (Network.neighbors net)) in
    let dsize = fx.dsize in
    for i = 0 to n - 1 do
      if h.Proof.names.(i) <> Network.name net i then
        reject "header: variable %d is %S in the proof, %S in the network" i
          h.Proof.names.(i) (Network.name net i);
      if h.Proof.domain_sizes.(i) <> dsize.(i) then
        reject "header: domain size mismatch for %s" (Network.name net i)
    done;
    if h.Proof.digest <> Proof.digest net then
      reject "header: network digest mismatch (proof %s, network %s)"
        h.Proof.digest (Proof.digest net);
    let slack = h.Proof.slack in
    if not (Float.is_finite slack && slack >= 0.0) then
      reject "header: slack must be finite and non-negative";
    (* ---- verdict context ------------------------------------------- *)
    let verdict =
      match proof.Proof.verdict with
      | None -> reject "missing verdict (truncated proof?)"
      | Some v -> v
    in
    let optimal_ctx =
      match verdict with Proof.Optimal _ -> true | _ -> false
    in
    let costs =
      if not optimal_ctx then None
      else
        match costs with
        | None -> reject "optimality certificate requires a cost model"
        | Some c ->
            if Array.length c <> n then
              reject "cost table: variable count mismatch";
            Array.iteri
              (fun i row ->
                if Array.length row <> dsize.(i) then
                  reject "cost table: domain size mismatch for %s"
                    (Network.name net i))
              c;
            Some c
    in
    (* ---- state ----------------------------------------------------- *)
    let live = fx.live and cnt = fx.cnt in
    let comp_of = Array.make n (-1) in
    let comp_members : (int, int array) Hashtbl.t = Hashtbl.create 8 in
    let comp_order = ref [] in
    let bcomp : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let comp_dead : (int, unit) Hashtbl.t = Hashtbl.create 4 in
    let global_dead = ref false in
    let incs_seen = ref false in
    (* nogood database: lits plus owning component, and per-variable
       occurrence lists *)
    let ng_comp = ref (Array.make 16 (-1)) in
    let ng_lits = ref (Array.make 16 [||]) in
    let ng_count = ref 0 in
    let add_ng c lits =
      if !ng_count = Array.length !ng_lits then begin
        let bigger_l = Array.make (2 * !ng_count) [||] in
        let bigger_c = Array.make (2 * !ng_count) (-1) in
        Array.blit !ng_lits 0 bigger_l 0 !ng_count;
        Array.blit !ng_comp 0 bigger_c 0 !ng_count;
        ng_lits := bigger_l;
        ng_comp := bigger_c
      end;
      !ng_lits.(!ng_count) <- lits;
      !ng_comp.(!ng_count) <- c;
      incr ng_count;
      !ng_count - 1
    in
    let occ = Array.make n [] in
    (* ---- propagation ----------------------------------------------- *)
    let module Wipe = struct
      exception E of int
    end in
    let assuming = ref false in
    let trail = ref [] in
    let clear_queue () =
      Queue.iter (fun j -> fx.queued.(j) <- false) fx.queue;
      Queue.clear fx.queue
    in
    let mark_dead c =
      if optimal_ctx && c >= 0 then Hashtbl.replace comp_dead c ()
      else global_dead := true
    in
    let remove i v =
      if live.(i).(v) then begin
        if !assuming then trail := (i, v) :: !trail;
        if kill fx i v then
          if !assuming then raise (Wipe.E i) else mark_dead comp_of.(i)
      end
    in
    let rollback m =
      while !trail != m do
        match !trail with
        | (i, v) :: rest ->
            live.(i).(v) <- true;
            cnt.(i) <- cnt.(i) + 1;
            trail := rest
        | [] -> assert false
      done
    in
    let held (x, v) = cnt.(x) = 1 && live.(x).(v) in
    let lit_dead (x, v) = not live.(x).(v) in
    let eval_ng id =
      let lits = !ng_lits.(id) in
      if not (Array.exists lit_dead lits) then begin
        let unheld_idx = ref (-1) and unheld = ref 0 in
        Array.iteri
          (fun k l ->
            if not (held l) then begin
              unheld_idx := k;
              incr unheld
            end)
          lits;
        if !unheld = 0 then begin
          if !assuming then raise (Wipe.E (fst lits.(0)))
          else mark_dead !ng_comp.(id)
        end
        else if !unheld = 1 then
          let x, v = lits.(!unheld_idx) in
          remove x v
      end
    in
    let after j = List.iter eval_ng occ.(j) in
    let propagate () = propagate fx ~remove ~after in
    let assume_lit (x, v) =
      if not live.(x).(v) then raise (Wipe.E x);
      for w = 0 to dsize.(x) - 1 do
        if w <> v then remove x w
      done
    in
    (* [with_assumed lits k ~on_conflict] restricts each literal's
       variable to the literal's value, propagates, and runs [k] on the
       resulting state ([on_conflict] on a domain wipeout); the state is
       rolled back either way. Nests (probes run on top of an assumed
       nogood). *)
    let with_assumed lits k ~on_conflict =
      let saved = !assuming in
      let m = !trail in
      assuming := true;
      let result =
        try
          Array.iter assume_lit lits;
          propagate ();
          k ()
        with Wipe.E w ->
          clear_queue ();
          on_conflict w
      in
      assuming := saved;
      rollback m;
      result
    in
    (* ---- cost bounds ----------------------------------------------- *)
    let bound_of c = Option.value (Hashtbl.find_opt bcomp c) ~default:infinity in
    let comp_lb c =
      match costs with
      | None -> neg_infinity
      | Some costs ->
          Array.fold_left
            (fun acc x ->
              if cnt.(x) = 0 then acc
              else begin
                let m = ref infinity in
                let row = costs.(x) in
                for v = 0 to dsize.(x) - 1 do
                  if live.(x).(v) && row.(v) < !m then m := row.(v)
                done;
                acc +. !m
              end)
            0.0 (Hashtbl.find comp_members c)
    in
    (* Admissible-bound refutation: no assignment of component [c]
       compatible with the current state can cost less than the
       component's incumbent bound. *)
    let bound_refuted c =
      optimal_ctx
      &&
      let b = bound_of c in
      b < infinity && comp_lb c *. (1.0 +. slack) >= b -. tolerance b
    in
    (* [probe_refutes x]: every live value of [x], assumed on top of the
       current state, propagates to an in-component conflict or trips
       the bound rule — i.e. [x] has no viable value, refuting the
       state. *)
    let probe_refutes ~conflict_ok ~bound_ok x =
      let ok = ref true in
      for v = 0 to dsize.(x) - 1 do
        if !ok && live.(x).(v) then
          ok := with_assumed [| (x, v) |] bound_ok ~on_conflict:conflict_ok
      done;
      !ok
    in
    let ng_refuted c dead members lits =
      Array.exists lit_dead lits
      ||
      let conflict_ok w = (not optimal_ctx) || comp_of.(w) = c in
      let bound_ok () = bound_refuted c in
      with_assumed lits ~on_conflict:conflict_ok (fun () ->
          bound_refuted c
          || probe_refutes ~conflict_ok ~bound_ok dead
          || Array.exists
               (fun x ->
                 x <> dead && cnt.(x) > 1
                 && probe_refutes ~conflict_ok ~bound_ok x)
               members)
    in
    (* ---- initial fixpoint ------------------------------------------ *)
    for i = 0 to n - 1 do
      enqueue fx i
    done;
    propagate ();
    (* ---- replay ---------------------------------------------------- *)
    let seen = Array.make n 0 in
    let stamp = ref 0 in
    let fail_at sn fmt =
      Printf.ksprintf
        (fun s -> raise (Reject (Printf.sprintf "step %d: %s" sn s)))
        fmt
    in
    let check_lits ~what ~sn c lits =
      incr stamp;
      Array.iter
        (fun (x, v) ->
          if x < 0 || x >= n then
            fail_at sn "%s: variable %d out of range" what x;
          if v < 0 || v >= dsize.(x) then
            fail_at sn "%s: value %d out of range for %s" what v
              (Network.name net x);
          if comp_of.(x) <> c then
            fail_at sn "%s: variable %s outside component %d" what
              (Network.name net x) c;
          if seen.(x) = !stamp then
            fail_at sn "%s: duplicate variable %s" what (Network.name net x);
          seen.(x) <- !stamp)
        lits
    in
    List.iteri
      (fun idx step ->
        let sn = idx + 1 in
        let fail fmt = fail_at sn fmt in
        match step with
        | Proof.Inc { comp = c; lits; cost } ->
            incs_seen := true;
            if not optimal_ctx then
              fail "incumbent step outside an optimality certificate";
            if not !global_dead then begin
              let members =
                match Hashtbl.find_opt comp_members c with
                | None -> fail "incumbent for undeclared component %d" c
                | Some m -> m
              in
              if Array.length lits <> Array.length members then
                fail "incumbent does not cover component %d exactly" c;
              check_lits ~what:"incumbent" ~sn c lits;
              if not (Float.is_finite cost) then
                fail "incumbent cost is not finite";
              (match costs with
              | Some costs ->
                  let rc =
                    Array.fold_left
                      (fun acc (x, v) -> acc +. costs.(x).(v))
                      0.0 lits
                  in
                  if Float.abs (rc -. cost) > tolerance cost then
                    fail "incumbent cost %.17g does not match recomputed %.17g"
                      cost rc
              | None -> ());
              if not (cost < bound_of c) then
                fail "incumbent %.17g does not improve the bound %.17g" cost
                  (bound_of c);
              let a = Array.make n (-1) in
              Array.iter (fun (x, v) -> a.(x) <- v) lits;
              if not (Network.consistent_partial net a) then
                fail "incumbent violates a constraint";
              Hashtbl.replace bcomp c cost
            end
        | Proof.Del { var; value; reason } ->
            if not !global_dead then begin
              if var < 0 || var >= n then fail "variable %d out of range" var;
              if value < 0 || value >= dsize.(var) then
                fail "value %d out of range for %s" value (Network.name net var);
              match reason with
              | Proof.Arc_inconsistent ->
                  if live.(var).(value) then
                    fail "ac deletion of %s value %d: the value still has support"
                      (Network.name net var) value
              | Proof.Dominated by ->
                  if live.(var).(value) then begin
                    if by < 0 || by >= dsize.(var) || by = value then
                      fail "invalid dominance witness %d" by;
                    if not live.(var).(by) then
                      fail "dominance witness %d of %s is not live" by
                        (Network.name net var);
                    Array.iter
                      (fun j ->
                        for w = 0 to dsize.(j) - 1 do
                          if
                            live.(j).(w)
                            && Network.allowed net var value j w
                            && not (Network.allowed net var by j w)
                          then
                            fail
                              "dominance witness %d does not cover a support \
                               of %s value %d in %s"
                              by (Network.name net var) value
                              (Network.name net j)
                        done)
                      fx.nbrs.(var);
                    (match costs with
                    | Some costs ->
                        if
                          costs.(var).(by)
                          > costs.(var).(value)
                            +. tolerance costs.(var).(value)
                        then
                          fail
                            "dominance witness %d costs more than the removed \
                             value %d of %s"
                            by value (Network.name net var)
                    | None -> ());
                    remove var value;
                    propagate ()
                  end
            end
        | Proof.Comp { id; vars } ->
            if not !global_dead then begin
              if id < 0 then fail "negative component id";
              if Hashtbl.mem comp_members id then
                fail "component %d redeclared" id;
              if Array.length vars = 0 then fail "empty component";
              Array.iter
                (fun x ->
                  if x < 0 || x >= n then fail "variable %d out of range" x;
                  if comp_of.(x) <> -1 then
                    fail "variable %s claimed by two components"
                      (Network.name net x))
                vars;
              Array.iter (fun x -> comp_of.(x) <- id) vars;
              Array.iter
                (fun x ->
                  Array.iter
                    (fun y ->
                      if comp_of.(y) <> id then
                        fail
                          "component %d is not constraint-closed: %s has a \
                           neighbor outside it"
                          id (Network.name net x))
                    fx.nbrs.(x))
                vars;
              Hashtbl.replace comp_members id vars;
              comp_order := id :: !comp_order
            end
        | Proof.Ng { comp = c; dead; lits } ->
            if not !global_dead then begin
              match Hashtbl.find_opt comp_members c with
              | None -> fail "nogood for undeclared component %d" c
              | Some _ when Hashtbl.mem comp_dead c ->
                  (* the component is already refuted at the root: any
                     nogood over it is implied *)
                  ()
              | Some members ->
                  if Array.length lits = 0 then fail "empty nogood";
                  check_lits ~what:"nogood" ~sn c lits;
                  if dead < 0 || dead >= n || comp_of.(dead) <> c then
                    fail "dead variable outside component %d" c;
                  if not (ng_refuted c dead members lits) then
                    fail "nogood is not derivable from the network and \
                          earlier steps";
                  if Array.length lits = 1 then begin
                    let x, v = lits.(0) in
                    remove x v;
                    propagate ()
                  end
                  else begin
                    let id = add_ng c lits in
                    Array.iter (fun (x, _) -> occ.(x) <- id :: occ.(x)) lits;
                    eval_ng id;
                    propagate ()
                  end
            end)
      proof.Proof.steps;
    (* ---- verdict --------------------------------------------------- *)
    (match verdict with
    | Proof.Aborted -> reject "aborted run carries no certificate"
    | Proof.Sat a ->
        if Array.length a <> n then reject "sat assignment has wrong length";
        Array.iteri
          (fun i v ->
            if v < 0 || v >= dsize.(i) then
              reject "sat assignment: value out of range for %s"
                (Network.name net i))
          a;
        if not (Network.verify net a) then
          reject "sat assignment violates a constraint"
    | Proof.Unsat ->
        if !incs_seen then reject "unsat verdict despite incumbent steps";
        let refuted =
          !global_dead
          || Hashtbl.length comp_dead > 0
          ||
          let found = ref false in
          let x = ref 0 in
          while (not !found) && !x < n do
            if
              cnt.(!x) > 0
              && probe_refutes
                   ~conflict_ok:(fun _ -> true)
                   ~bound_ok:(fun () -> false)
                   !x
            then found := true;
            incr x
          done;
          !found
        in
        if not refuted then reject "unsatisfiability not established"
    | Proof.Optimal { cost; assignment } ->
        let costs = match costs with Some c -> c | None -> assert false in
        if not (Float.is_finite cost) then reject "claimed optimum is not finite";
        for i = 0 to n - 1 do
          if comp_of.(i) < 0 then
            reject "variable %s is not covered by any component"
              (Network.name net i)
        done;
        if Array.length assignment <> n then
          reject "optimal assignment has wrong length";
        Array.iteri
          (fun i v ->
            if v < 0 || v >= dsize.(i) then
              reject "optimal assignment: value out of range for %s"
                (Network.name net i))
          assignment;
        if not (Network.verify net assignment) then
          reject "optimal assignment violates a constraint";
        let rc = ref 0.0 in
        Array.iteri (fun i v -> rc := !rc +. costs.(i).(v)) assignment;
        if Float.abs (!rc -. cost) > tolerance cost then
          reject "claimed optimum %.17g does not match the assignment's \
                  recomputed cost %.17g" cost !rc;
        let comps = List.rev !comp_order in
        let sum =
          List.fold_left (fun acc c -> acc +. bound_of c) 0.0 comps
        in
        if not (Float.is_finite sum) then
          reject "a component has no incumbent bound";
        if Float.abs (sum -. cost) > tolerance cost then
          reject "component bounds sum to %.17g, not the claimed %.17g" sum
            cost;
        List.iter
          (fun c ->
            let ok =
              Hashtbl.mem comp_dead c
              || bound_refuted c
              ||
              let members = Hashtbl.find comp_members c in
              Array.exists
                (fun x ->
                  cnt.(x) > 1
                  && probe_refutes
                       ~conflict_ok:(fun w -> comp_of.(w) = c)
                       ~bound_ok:(fun () -> bound_refuted c)
                       x)
                members
            in
            if not ok then
              reject "component %d: optimality of its bound is not established"
                c)
          comps);
    Ok ()
  with
  | Reject msg -> Error msg
  | Invalid_argument msg -> Error (Printf.sprintf "malformed proof: %s" msg)

let refutes ?only net =
  let n = Network.num_vars net in
  let adj = Array.make n [] in
  let add i j =
    if i >= 0 && j >= 0 && i < n && j < n && i <> j then
      adj.(i) <- j :: adj.(i)
  in
  List.iter
    (fun (i, j) ->
      add i j;
      add j i)
    (match only with None -> Network.constraint_pairs net | Some ps -> ps);
  let fx = fixpoint net (Array.map Array.of_list adj) in
  let remove i v = if kill fx i v then raise Exit in
  for i = 0 to n - 1 do
    enqueue fx i
  done;
  match propagate fx ~remove ~after:ignore with
  | () -> false
  | exception Exit -> true
