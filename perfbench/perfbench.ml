(* The end-to-end benchmark of Algorithm 1 and the solve service.

     perfbench --server EXE --workload W --seed N --seconds S --trace 0|1
     perfbench table --workload W --seed N [--rounds R] [--seconds S]
                                             # the expected-answer table
     perfbench table --bases                 # rebuild perfbench/bases.tsv
     perfbench selftest                      # the checkers reject bad answers

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1).  See perfbench/README.md. *)

let workloads = [ "alg1-lec"; "alg1-satcomp"; "serve-solve"; "serve-repeat" ]

let end_to_end =
  [ ("t_all_s", "s"); ("jobs_per_s", "jobs/s"); ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("core.to_aig_s", "s"); ("synth.balance_s", "s"); ("synth.rewrite_s", "s");
    ("synth.resub_s", "s"); ("synth.ands_out", "count"); ("lutmap.map_s", "s");
    ("lutmap.luts", "count"); ("lutmap.encode_s", "s");
    ("lutmap.cnf_clauses", "count"); ("sat.solve_s", "s");
    ("sat.decisions", "count"); ("sat.conflicts", "count");
    ("sat.props_per_s", "1/s"); ("cnf.parse_s", "s");
    ("cnf.parse_mb_per_s", "MB/s"); ("cnf.fingerprint_s", "s");
    ("cnf.fingerprint_mb_per_s", "MB/s"); ("cnf.eval_s", "s");
    ("server.submit_ms", "ms"); ("server.overhead_ms", "ms");
    ("server.cache_hits", "count"); ("server.solved", "count");
    ("protocol.render_ms", "ms"); ("net.overhead_ms", "ms");
    ("net.answer_kb", "KB"); ("trace.accounted_pct", "%");
    ("trace.overhead_pct", "%") ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let arg name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let flag name = Array.exists (( = ) name) Sys.argv

let int_arg name ~default =
  match arg name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with Some n -> n | None -> die "bad %s %S" name s)

(* Scratch files and span dumps, inside the working directory. *)
let work = ".perfbench_work"

let bases = lazy (Bases.load (Option.value ~default:"perfbench/bases.tsv" (arg "--bases")))

let alg1_inputs w ~seed round =
  if w = "alg1-lec" then Alg1.lec ~seed ~round else Alg1.satcomp ~bases ~seed ~round

let serve_inputs w ~seed ~seconds ~dir () =
  if w = "serve-solve" then Serve.solve_inputs ~bases ~seed ~seconds ~dir
  else Serve.repeat_inputs ~seed ~dir

(* The checkers must reject a corrupted model and a flipped verdict. *)
let selftest () =
  let cnf = { Cnf_data.nvars = 3; clauses = [| [| 1; 2 |]; [| -1; 3 |]; [| -2; -3 |] |] } in
  let entry verdict = lazy { Expected.name = "selftest"; verdict; source = "selftest" } in
  let verdict_of tally = (tally.Tally.attempted, tally.Tally.wrong + tally.Tally.failed) in
  let run ~expected ~verdict ~model_line =
    let tally = Tally.create ~quiet:true () in
    Serve.check_answer tally
      { Serve.path = "selftest"; cnf; entry = entry expected }
      ~verdict ~model_line;
    verdict_of tally = (1, 0)
  in
  let accepted = run ~expected:Expected.Sat ~verdict:"SAT" ~model_line:(Some "v 1 -2 3 0") in
  let rejected =
    [
      ("corrupted model", run ~expected:Expected.Sat ~verdict:"SAT" ~model_line:(Some "v -1 -2 3 0"));
      ("model missing a variable", run ~expected:Expected.Sat ~verdict:"SAT" ~model_line:(Some "v 1 -2 0"));
      ("flipped verdict UNSAT", run ~expected:Expected.Sat ~verdict:"UNSAT" ~model_line:None);
      ("flipped verdict SAT", run ~expected:Expected.Unsat ~verdict:"SAT" ~model_line:(Some "v 1 -2 3 0"));
    ]
  in
  let direct =
    Result.is_error
      (Expected.check { Expected.name = "x"; verdict = Expected.Unsat; source = "" } Expected.Sat)
    && not (Cnf_data.satisfies cnf [| false; false; true |])
  in
  let bad = List.filter_map (fun (what, ok) -> if ok then Some what else None) rejected in
  if not accepted then die "selftest: a correct answer was rejected";
  if bad <> [] then die "selftest: accepted %s" (String.concat ", " bad);
  if not direct then die "selftest: the table check accepted a flipped verdict"

let table () =
  if flag "--bases" then Bases.write_rows stdout (Bases.rebuild ())
  else begin
    let w = Option.value ~default:"" (arg "--workload") in
    let seed = int_arg "--seed" ~default:1 in
    let entries =
      match w with
      | "alg1-lec" | "alg1-satcomp" ->
        List.concat_map
          (fun round -> List.map (fun (i : Alg1.instance) -> i.table ()) (alg1_inputs w ~seed round))
          (List.init (int_arg "--rounds" ~default:6) Fun.id)
      | "serve-solve" | "serve-repeat" ->
        let dir = Filename.concat work (Printf.sprintf "table-%d" (Unix.getpid ())) in
        Util.mkdir_p dir;
        let seconds = float_of_int (int_arg "--seconds" ~default:55) in
        let inputs = serve_inputs w ~seed ~seconds ~dir () in
        let reqs = List.concat_map Array.to_list (Array.to_list inputs.Serve.rounds) in
        let e =
          List.map
            (fun (r : Serve.request) ->
              { (Lazy.force r.entry) with Expected.name = Filename.basename r.path })
            reqs
        in
        Util.rm_rf dir;
        e
      | w -> die "unknown workload %S (one of %s)" w (String.concat ", " workloads)
    in
    Expected.print_table entries
  end

let run () =
  let exe = Option.value ~default:"_build/default/bin/eda4sat_cli.exe" (arg "--server") in
  let w = match arg "--workload" with Some w -> w | None -> die "--workload is required" in
  if not (List.mem w workloads) then
    die "unknown workload %S (one of %s)" w (String.concat ", " workloads);
  let seed = int_arg "--seed" ~default:1 in
  let seconds = float_of_int (int_arg "--seconds" ~default:55) in
  let trace = int_arg "--trace" ~default:0 = 1 in
  let started = Util.now () in
  let hard_deadline = started +. seconds +. 120.0 in
  selftest ();
  if not (Sys.file_exists exe) then die "no server executable at %s" exe;
  let tally = Tally.create () and tr = Trace.create () in
  let metrics =
    match w with
    | "alg1-lec" | "alg1-satcomp" ->
      let make = alg1_inputs w ~seed in
      if trace then Alg1.run_traced ~seconds ~tally ~tr ~make
      else begin
        (* Set-up: making one round's inputs, three times. *)
        let setup_s = Util.median (List.init 3 (fun _ -> snd (Util.timed (fun () -> make 0)))) in
        Alg1.run_untraced ~seconds ~tally ~make
        @ [ ("setup_s", "s", setup_s); ("peak_rss_mb", "MB", Util.vm_hwm_mb "self") ]
      end
    | _ ->
      let dir = Filename.concat work (Printf.sprintf "%s-%d-%d" w seed (Unix.getpid ())) in
      Util.rm_rf dir;
      Util.mkdir_p dir;
      (* Removed at exit, also when a signal ends the run. *)
      at_exit (fun () -> Util.rm_rf dir);
      let make_inputs = serve_inputs w ~seed ~seconds ~dir in
      if trace then Serve.per_layer ~exe ~make_inputs ~seconds ~hard_deadline ~tr tally
      else Serve.end_to_end ~exe ~make_inputs ~seconds ~hard_deadline tally
  in
  if trace then begin
    Util.mkdir_p work;
    Trace.write tr (Filename.concat work (Printf.sprintf "spans-%s.jsonl" w))
  end;
  let wanted = if trace then per_layer else end_to_end in
  let values =
    List.map
      (fun (name, unit) ->
        let v =
          match List.find_opt (fun (n, _, _) -> n = name) metrics with
          | Some (_, _, v) -> v
          | None -> 0.0 (* a layer this workload does not call *)
        in
        if not (Float.is_finite v) then die "metric %s is not a number" name;
        (name, unit, v))
      wanted
  in
  Util.log "%s seed %d: %d operations, %d failed, %d wrong, %.1f s" w seed
    tally.Tally.attempted tally.Tally.failed tally.Tally.wrong (Util.now () -. started);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (tally.Tally.wrong = 0) tally.Tally.attempted tally.Tally.failed
    (Util.json_metrics values)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Interrupted runs still stop their servers (at_exit in Serve). *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  try
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "table" then table ()
    else if Array.length Sys.argv > 1 && Sys.argv.(1) = "selftest" then begin
      selftest ();
      print_endline "selftest: ok"
    end
    else run ()
  with
  | Expected.Table_error m -> die "expected-answer table: %s" m
  | Failure m -> die "%s" m
  | Unix.Unix_error (e, f, a) -> die "%s(%s): %s" f a (Unix.error_message e)
