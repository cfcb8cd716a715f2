(* Clocks, statistics, a seeded generator and JSON output — all local
   to the benchmark, so nothing it measures with comes from the code
   under test. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* SplitMix64-style mixing over 63-bit OCaml ints (plenty for shuffling
   and picking instances). *)
type rng = { mutable state : int }

let rng seed = { state = (seed * 0x1E3779B97F4A7C15) lxor 0x2545F4914F6CDD1D }

let next r =
  r.state <- r.state + 0x1E3779B97F4A7C15;
  let z = r.state in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let int r bound = (next r land max_int) mod bound

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Linear interpolation between closest ranks (the "inclusive" method
   of Python's statistics.quantiles). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.0

(* Peak resident set of a process, from its /proc status. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else find ()
    in
    let v = find () in
    close_in ic;
    v

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

(* {"name": {"value": v, "unit": u}, ...} with every digit kept. *)
let json_metrics ms =
  ms
  |> List.map (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_integer v && Float.abs v < 1e15 then
              Printf.sprintf "%.0f" v
            else Printf.sprintf "%.17g" v)
           unit)
  |> String.concat ", "
  |> Printf.sprintf "{%s}"
