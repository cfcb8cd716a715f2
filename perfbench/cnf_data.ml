(* The benchmark's own view of a CNF: it writes the files the service
   reads, and it evaluates served models against the clause lists it
   generated, without going through the program's formula code. *)

type t = { nvars : int; clauses : int array array }

let of_formula (f : Cnf.Formula.t) =
  { nvars = f.Cnf.Formula.num_vars; clauses = Array.map Array.copy f.clauses }

let to_formula c =
  Cnf.Formula.create ~num_vars:c.nvars (Array.to_list (Array.map Array.copy c.clauses))

(* A seeded presentation of the same formula: variables renamed by a
   random permutation, clauses and the literals inside each clause
   shuffled.  Renaming preserves satisfiability, so a presentation has
   its base formula's verdict; its canonical form (and fingerprint)
   differs from the base's with overwhelming probability. *)
let present rng c =
  let perm = Array.init c.nvars (fun i -> i + 1) in
  Util.shuffle rng perm;
  let clauses =
    Array.map
      (fun cl ->
        let cl =
          Array.map (fun l -> if l > 0 then perm.(l - 1) else -perm.(-l - 1)) cl
        in
        Util.shuffle rng cl;
        cl)
      c.clauses
  in
  Util.shuffle rng clauses;
  { c with clauses }

(* The same clauses in another order: a distinct file whose canonical
   fingerprint equals the original's. *)
let reorder rng c =
  let clauses = Array.map Array.copy c.clauses in
  Array.iter (Util.shuffle rng) clauses;
  Util.shuffle rng clauses;
  { c with clauses }

let to_dimacs c =
  let b = Buffer.create (16 * Array.length c.clauses) in
  Printf.bprintf b "p cnf %d %d\n" c.nvars (Array.length c.clauses);
  Array.iter
    (fun cl ->
      Array.iter
        (fun l ->
          Buffer.add_string b (string_of_int l);
          Buffer.add_char b ' ')
        cl;
      Buffer.add_string b "0\n")
    c.clauses;
  Buffer.contents b

let digest c = Digest.to_hex (Digest.string (to_dimacs c))

let write_file path c =
  let oc = open_out_bin path in
  output_string oc (to_dimacs c);
  close_out oc

(* [model.(v - 1)] is the value of variable [v]. *)
let satisfies c model =
  Array.length model = c.nvars
  && Array.for_all
       (fun cl ->
         Array.exists
           (fun l -> if l > 0 then model.(l - 1) else not model.(-l - 1))
           cl)
       c.clauses

(* Parse a DIMACS model line "v l1 l2 ... 0" into an assignment over
   [nvars] variables.  Every variable must appear exactly once. *)
let parse_model_line ~nvars line =
  let n = String.length line in
  if n < 1 || line.[0] <> 'v' then Error "model line does not start with v"
  else begin
    let model = Array.make nvars false and seen = Array.make nvars false in
    let err = ref None and terminated = ref false in
    let i = ref 1 in
    while !err = None && !i < n do
      while !i < n && line.[!i] = ' ' do incr i done;
      if !i < n then begin
        let neg = line.[!i] = '-' in
        if neg then incr i;
        let start = !i and v = ref 0 in
        while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
          v := (!v * 10) + Char.code line.[!i] - 48;
          incr i
        done;
        if !i = start || (!i < n && line.[!i] <> ' ') then
          err := Some "malformed literal"
        else if !terminated then err := Some "literal after terminating 0"
        else if !v = 0 then terminated := true
        else if !v > nvars then err := Some "variable out of range"
        else if seen.(!v - 1) then err := Some "variable assigned twice"
        else begin
          seen.(!v - 1) <- true;
          model.(!v - 1) <- not neg
        end
      end
    done;
    match !err with
    | Some e -> Error e
    | None when not !terminated -> Error "model line not terminated by 0"
    | None when not (Array.for_all Fun.id seen) -> Error "variable unassigned"
    | None -> Ok model
  end
