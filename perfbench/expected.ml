(* The expected-answer table: one verdict per instance, computed apart
   from Algorithm 1 and the solve service.

   - Known by construction: pigeonhole with more pigeons than holes,
     round-robin with at most [teams - 2] weeks, equivalence miters.
   - Fault-injected miters: a distinguishing input found by the
     benchmark's own random simulation of the miter.
   - Everything else: a direct [Sat.Solver.solve].  UNSAT is accepted
     only after its DRAT proof passes [Sat.Proof.check], SAT only after
     the model satisfies every clause (the benchmark's own evaluator). *)

type verdict = Sat | Unsat

let verdict_to_string = function Sat -> "SAT" | Unsat -> "UNSAT"

let verdict_of_string = function
  | "SAT" -> Some Sat
  | "UNSAT" -> Some Unsat
  | _ -> None

type entry = { name : string; verdict : verdict; source : string }

exception Table_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Table_error s)) fmt

(* Direct solve, accepted only with a checked certificate. *)
let solve_checked ~name (c : Cnf_data.t) =
  let f = Cnf_data.to_formula c in
  let proof = Sat.Proof.create () in
  match Sat.Solver.solve ~proof f with
  | Sat.Solver.Sat m, _ ->
    let m = Array.init c.nvars (fun i -> i < Array.length m && m.(i)) in
    if Cnf_data.satisfies c m then { name; verdict = Sat; source = "solve+model" }
    else fail "%s: the direct solve's model violates a clause" name
  | Sat.Solver.Unsat, _ ->
    if Sat.Proof.check f proof then
      { name; verdict = Unsat; source = "solve+drat" }
    else fail "%s: the DRAT proof of the direct solve does not check" name
  | Sat.Solver.Unknown, _ -> fail "%s: the direct solve gave no answer" name

(* Bit-parallel simulation of an AIG, 62 patterns per int word, with
   the benchmark's own gate evaluation.  Returns a PI assignment that
   sets some primary output, if one turns up. *)
let sim_witness ~seed ~words g =
  let module G = Aig.Graph in
  let mask = (1 lsl 62) - 1 in
  let r = Util.rng seed in
  let n = G.num_nodes g in
  let v = Array.make_matrix n words 0 in
  let npis = G.num_pis g in
  for i = 0 to npis - 1 do
    let node = G.node_of_lit (G.pi g i) in
    for w = 0 to words - 1 do
      v.(node).(w) <- Util.next r land mask
    done
  done;
  let word l w =
    let x = v.(G.node_of_lit l).(w) in
    if G.is_compl l then lnot x land mask else x
  in
  G.iter_ands g (fun id ->
      let a = G.fanin0 g id and b = G.fanin1 g id in
      for w = 0 to words - 1 do
        v.(id).(w) <- word a w land word b w
      done);
  let found = ref None in
  Array.iter
    (fun po ->
      for w = 0 to words - 1 do
        let x = word po w in
        if !found = None && x <> 0 then begin
          let bit = ref 0 in
          while (x lsr !bit) land 1 = 0 do incr bit done;
          found :=
            Some
              (Array.init npis (fun i ->
                   (v.(G.node_of_lit (G.pi g i)).(w) lsr !bit) land 1 = 1))
        end
      done)
    (G.pos g);
  !found

(* Single-pattern evaluation: does some output evaluate to 1? *)
let sets_an_output g inputs =
  let module G = Aig.Graph in
  let v = Array.make (G.num_nodes g) false in
  Array.iteri (fun i x -> v.(G.node_of_lit (G.pi g i)) <- x) inputs;
  let value l = v.(G.node_of_lit l) <> G.is_compl l in
  G.iter_ands g (fun id -> v.(id) <- value (G.fanin0 g id) && value (G.fanin1 g id));
  Array.exists value (G.pos g)

(* A LEC miter: equivalent ones are UNSAT by construction (and random
   simulation must not contradict that); a fault-injected one is SAT
   once simulation finds a distinguishing input; a fault that stays
   masked falls through to the checked direct solve. *)
let miter ~name ~seed ~faulty g =
  match sim_witness ~seed ~words:64 g with
  | Some w ->
    if not (sets_an_output g w) then
      fail "%s: simulation witness does not replay" name;
    if not faulty then fail "%s: an equivalence miter has a witness" name;
    { name; verdict = Sat; source = "simulation" }
  | None when not faulty ->
    { name; verdict = Unsat; source = "construction:equivalence-miter" }
  | None ->
    solve_checked ~name
      (Cnf_data.of_formula
         (Cnf.Tseitin.encode ~assert_outputs:true g).Cnf.Tseitin.formula)

(* Compare an observed verdict with the table. *)
let check entry observed =
  if observed = entry.verdict then Ok ()
  else
    Error
      (Printf.sprintf "%s: answered %s, expected %s (%s)" entry.name
         (verdict_to_string observed)
         (verdict_to_string entry.verdict)
         entry.source)

let print_table entries =
  List.iter
    (fun e ->
      Printf.printf "%s\t%s\t%s\n" e.name (verdict_to_string e.verdict) e.source)
    entries
