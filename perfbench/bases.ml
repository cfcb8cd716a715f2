(* Fixed base formulas of the CNF workloads and their committed
   verdicts ([perfbench/bases.tsv]).

   A random 3-SAT refutation of the size the workloads need takes
   [Sat.Proof.check] from seconds to minutes, far too long to repeat
   in every run.  So alg1-satcomp and serve-solve draw their inputs as
   seeded presentations (clauses reordered; for serve-solve, variables
   renamed too) of the fixed bases below.  A presentation has its
   base's verdict.  The expensive certificates are checked once, by
   [perfbench table --bases].  Every run re-derives each base and
   compares its digest with the committed row, so a changed generator
   cannot pass with a stale verdict. *)

type base = {
  name : string;
  make : unit -> Cnf.Formula.t;
  construction : string option;
      (** the reason the base is UNSAT by construction, if it is *)
}

let php p h =
  {
    name = Printf.sprintf "php-%d-%d" p h;
    make = (fun () -> Workloads.Satcomp.pigeonhole ~pigeons:p ~holes:h);
    construction = Some "pigeonhole";
  }

let miter name ~seed ~num_ands =
  {
    name;
    make = (fun () -> Workloads.Suites.miter_cnf ~seed ~num_ands);
    construction = Some "equivalence-miter";
  }

let r3sat name ~seed ~n ~ratio =
  {
    name;
    make =
      (fun () ->
        Workloads.Satcomp.random_ksat ~seed ~num_vars:n
          ~num_clauses:(int_of_float (float_of_int n *. ratio))
          ~k:3);
    construction = None;
  }

(* The C1-C8 families of Table 6 ([Workloads.Suites.c_suite]), sized
   so that one pass of Algorithm 1 over all eight takes about 4 s on
   one core, with the CDCL solve about a third of it. *)
let satcomp =
  [
    miter "C1-miter-cnf" ~seed:9101 ~num_ands:560;
    { (php 11 10) with name = "C2-php-11-10" };
    r3sat "C3-random3sat" ~seed:31 ~n:200 ~ratio:4.5;
    r3sat "C4-random3sat" ~seed:47 ~n:170 ~ratio:4.5;
    {
      name = "C5-cnfxor";
      make =
        (fun () ->
          Workloads.Satcomp.xor_cnf ~seed:53 ~num_vars:136 ~num_xors:128
            ~width:4);
      construction = None;
    };
    {
      name = "C6-roundrobin-8-6";
      make = (fun () -> Workloads.Satcomp.round_robin ~weeks:6 ~teams:8 ());
      construction = Some "round-robin with teams-2 weeks";
    };
    miter "C7-miter-cnf" ~seed:9103 ~num_ands:680;
    { (php 10 9) with name = "C8-php-10-9" };
  ]

(* Solver-bound requests of roughly 0.05-0.5 s each: threshold random
   3-SAT (mixed SAT/UNSAT), Tseitin equivalence miters, a small
   pigeonhole. *)
let serve_solve =
  List.init 6 (fun i ->
      r3sat (Printf.sprintf "r3sat-190-%d" (i + 1)) ~seed:(201 + i) ~n:190
        ~ratio:4.26)
  @ List.init 3 (fun i ->
        miter (Printf.sprintf "miter-350-%d" (i + 1)) ~seed:(301 + i)
          ~num_ands:350)
  @ [ php 8 7 ]

let all = satcomp @ serve_solve

(* One row per base: name, digest of its DIMACS text, verdict, source. *)
let rebuild () =
  List.map
    (fun b ->
      let c = Cnf_data.of_formula (b.make ()) in
      let t0 = Util.now () in
      let e =
        match b.construction with
        | Some why ->
          { Expected.name = b.name; verdict = Expected.Unsat;
            source = "construction:" ^ why }
        | None -> Expected.solve_checked ~name:b.name c
      in
      Util.log "%s: %s (%s, %.1f s)" b.name
        (Expected.verdict_to_string e.verdict) e.source (Util.now () -. t0);
      (Cnf_data.digest c, e))
    all

let write_rows oc rows =
  output_string oc
    "# Verdicts of the fixed base formulas of alg1-satcomp and serve-solve.\n\
     # Rebuild: _build/default/perfbench/perfbench.exe table --bases > \
     perfbench/bases.tsv\n\
     # name\tdigest\tverdict\tsource\n";
  List.iter
    (fun (digest, e) ->
      Printf.fprintf oc "%s\t%s\t%s\t%s\n" e.Expected.name digest
        (Expected.verdict_to_string e.verdict) e.source)
    rows

let load path =
  let ic =
    try open_in path
    with Sys_error m -> Expected.fail "cannot read the base table: %s" m
  in
  let rows = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '\t' line with
         | [ name; digest; verdict; source ] -> (
           match Expected.verdict_of_string verdict with
           | Some verdict ->
             Hashtbl.replace rows name (digest, { Expected.name; verdict; source })
           | None -> Expected.fail "%s: bad verdict %S" path verdict)
         | _ -> Expected.fail "%s: bad row %S" path line
     done
   with End_of_file -> close_in ic);
  rows

(* The base's formula and its table row, after checking that the
   committed digest still matches what the generator produces. *)
let resolve rows b =
  let c = Cnf_data.of_formula (b.make ()) in
  match Hashtbl.find_opt rows b.name with
  | None -> Expected.fail "base %s has no row in the base table" b.name
  | Some (digest, e) ->
    if digest <> Cnf_data.digest c then
      Expected.fail
        "base %s no longer matches its committed digest; rebuild the base \
         table (perfbench table --bases)"
        b.name;
    (c, e)
