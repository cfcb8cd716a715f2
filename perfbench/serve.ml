(* The serve-* workloads: `eda4sat serve --listen 127.0.0.1:0 --workers
   2` driven by this process in a closed loop over two TCP connections,
   each sending its next SOLVE only after reading the previous answer
   in full.  The traced run repeats the requests in process, through
   the ingest and engine functions the service calls, with the same
   engine configuration. *)

type request = {
  path : string;  (** relative to the working directory *)
  cnf : Cnf_data.t;  (** the clause list the file was written from *)
  entry : Expected.entry Lazy.t;
}

type inputs = {
  warmup : request list;  (** sent once, before timing *)
  rounds : request array array;  (** the timed requests, round by round *)
}

let workers = 2
let connections = 2
let deadline_ms = 30_000

(* The engine configuration `eda4sat serve --workers 2` runs with. *)
let engine_config =
  {
    Server.default_config with
    Server.workers;
    limits = { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some 300.0 };
  }

(* --- inputs ----------------------------------------------------------- *)

(* serve-solve: every request a fresh presentation of one of the
   solver-bound bases, so no two requests share a fingerprint.  Enough
   rounds are written for 25 requests a second. *)
let solve_inputs ~bases ~seed ~seconds ~dir =
  let bs = Array.of_list Bases.serve_solve in
  let nb = Array.length bs in
  let base_cnf = Array.map (fun (b : Bases.base) -> Cnf_data.of_formula (b.make ())) bs in
  let entries =
    Array.map
      (fun b -> lazy (snd (Bases.resolve (Lazy.force bases) b)))
      bs
  in
  let nrounds = 1 + int_of_float (ceil (seconds *. 25.0 /. float_of_int nb)) in
  let rounds =
    Array.init nrounds (fun r ->
        let rng = Util.rng ((seed * 1_000_003) + r) in
        let order = Array.init nb Fun.id in
        Util.shuffle rng order;
        Array.map
          (fun i ->
            let cnf = Cnf_data.present rng base_cnf.(i) in
            let path =
              Filename.concat dir (Printf.sprintf "solve-%03d-%s.cnf" r bs.(i).name)
            in
            Cnf_data.write_file path cnf;
            let entry =
              lazy
                (let e = Lazy.force entries.(i) in
                 { e with Expected.name = path;
                          source = "base " ^ bs.(i).name ^ ": " ^ e.Expected.source })
            in
            { path; cnf; entry })
          order)
  in
  { warmup = []; rounds }

(* serve-repeat: a few large, easy random 3-SAT formulas (about 1 MB
   of DIMACS each, well below the threshold), each written as several
   clause-shuffled copies with one canonical fingerprint.  The warm-up
   solves each formula once; every timed answer is a cache hit. *)
let repeat_formulas = 3
let repeat_copies = 4
let repeat_vars = 16_000
let repeat_ratio = 3.0

let repeat_inputs ~seed ~dir =
  let reqs =
    Array.init repeat_formulas (fun f ->
        let fseed = ((seed * 104_729) + (f * 7_919) + 3) land 0x3FFFFFFF in
        let base =
          Cnf_data.of_formula
            (Workloads.Satcomp.random_ksat ~seed:fseed ~num_vars:repeat_vars
               ~num_clauses:(int_of_float (float_of_int repeat_vars *. repeat_ratio))
               ~k:3)
        in
        let name = Printf.sprintf "repeat-%d" f in
        let formula_entry = lazy (Expected.solve_checked ~name base) in
        let rng = Util.rng ((seed * 31) + f) in
        Array.init repeat_copies (fun c ->
            let cnf = if c = 0 then base else Cnf_data.reorder rng base in
            let path = Filename.concat dir (Printf.sprintf "%s-copy%d.cnf" name c) in
            Cnf_data.write_file path cnf;
            let entry =
              lazy
                (let e = Lazy.force formula_entry in
                 { e with Expected.name = path; source = name ^ ": " ^ e.Expected.source })
            in
            { path; cnf; entry }))
  in
  {
    warmup = Array.to_list (Array.map (fun copies -> copies.(0)) reqs);
    rounds =
      [| Array.concat
           (List.init repeat_copies (fun c -> Array.map (fun copies -> copies.(c)) reqs)) |];
  }

(* The timed request stream: round after round, cycling when the
   generated rounds run out (serve-repeat has a single round). *)
let request_at inputs k =
  let per = Array.length inputs.rounds.(0) in
  let r = k / per in
  if r >= Array.length inputs.rounds && Array.length inputs.rounds > 1 then None
  else Some inputs.rounds.(r mod Array.length inputs.rounds).(k mod per)

(* --- checking --------------------------------------------------------- *)

(* Model checks already made, by file and model line: serve-repeat
   answers each file with the same cached model again and again, which
   needs evaluating only once. *)
let model_checks = Hashtbl.create 64

let check_model (e : Expected.entry) req line =
  let key = e.name ^ "\000" ^ Digest.string line in
  match Hashtbl.find_opt model_checks key with
  | Some r -> r
  | None ->
    let r =
      match Cnf_data.parse_model_line ~nvars:req.cnf.Cnf_data.nvars line with
      | Error why -> Error (req.path ^ ": " ^ why)
      | Ok m when not (Cnf_data.satisfies req.cnf m) ->
        Error (req.path ^ ": served model violates a clause")
      | Ok _ -> Ok ()
    in
    Hashtbl.replace model_checks key r;
    r

(* A served answer against the table; SAT models through the
   benchmark's own clause evaluator. *)
let check_answer tally req ~verdict ~model_line =
  let e = Lazy.force req.entry in
  match (verdict, model_line) with
  | "SAT", None -> Tally.check tally (Error (req.path ^ ": SAT without a model line"))
  | "SAT", Some line ->
    Tally.check tally
      (Result.bind (check_model e req line) (fun () -> Expected.check e Expected.Sat))
  | "UNSAT", _ -> Tally.check tally (Expected.check e Expected.Unsat)
  | other, _ -> Tally.fail tally (req.path ^ ": " ^ other)

(* --- the server process ----------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

(* SIGTERM (the server drains), then SIGKILL after 10 s; reaped either
   way. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Util.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.now () -. t0 < 10.0 ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* Servers not yet shut down; stopped when the process exits, however
   it exits. *)
let live = ref []

let () = at_exit (fun () -> List.iter stop !live)

let launch exe =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    [| exe; "serve"; "--listen"; "127.0.0.1:0"; "--workers"; string_of_int workers |]
  in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  live := pid :: !live;
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let rec port () =
    match input_line out with
    | exception End_of_file -> failwith "the server exited before listening"
    | line -> (
      match Scanf.sscanf line "c listening on %s@:%d" (fun _ p -> p) with
      | p -> p
      | exception _ -> port ())
  in
  { pid; port = port (); out }

let shutdown s =
  live := List.filter (fun p -> p <> s.pid) !live;
  stop s.pid;
  close_in_noerr s.out

(* --- the client ------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;  (** bytes of the line being read *)
  mutable current : (request * float) option;  (** in flight, sent at *)
  mutable header : string option;
  mutable verdict : string option;
  mutable bytes : int;
}

type answer = {
  req : request;
  latency : float;  (** seconds, first byte written to last byte read *)
  wall_ms : float;  (** as the answer header reports it *)
  answer_bytes : int;
  verdict : string;
  model_line : string option;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; partial = Buffer.create 4096; current = None; header = None;
    verdict = None; bytes = 0 }

let send c s =
  let n = String.length s in
  let rec go o = if o < n then go (o + Unix.write_substring c.fd s o (n - o)) in
  go 0

let header_field header key =
  let pat = " " ^ key ^ "=" in
  let lp = String.length pat and n = String.length header in
  let rec find i =
    if i + lp > n then None
    else if String.sub header i lp = pat then
      let j = try String.index_from header (i + lp) ' ' with Not_found -> n in
      Some (String.sub header (i + lp) (j - i - lp))
    else find (i + 1)
  in
  find 0

(* Feed one complete line; returns the answer it completes, if any. *)
let on_line c line =
  match c.current with
  | None -> None
  | Some (req, sent) ->
    c.bytes <- c.bytes + String.length line + 1;
    let finish verdict model_line =
      let wall_ms =
        match Option.bind c.header (fun h -> header_field h "wall_ms") with
        | Some w -> float_of_string w
        | None -> nan
      in
      let a =
        { req; latency = Util.now () -. sent; wall_ms; answer_bytes = c.bytes;
          verdict; model_line }
      in
      c.current <- None;
      c.header <- None;
      c.verdict <- None;
      Some a
    in
    (match (c.header, c.verdict) with
     | None, _ ->
       if String.length line >= 5 && String.sub line 0 5 = "c job" then
         c.header <- Some line;
       None
     | Some _, None ->
       if line = "SAT" then begin
         c.verdict <- Some line;
         None
       end
       else finish line None
     | Some _, Some v -> finish v (Some line))

let chunk = Bytes.create 65536

(* Read what is available; complete lines go to [on_line]. *)
let read_lines c k =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "the server closed a connection"
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        Buffer.add_subbytes c.partial chunk !start (i - !start);
        let line = Buffer.contents c.partial in
        Buffer.clear c.partial;
        start := i + 1;
        k line
      end
    done;
    Buffer.add_subbytes c.partial chunk !start (n - !start)

let ping c =
  send c "PING\n";
  let got = ref false in
  while not !got do
    read_lines c (fun line -> if line = "PONG" then got := true)
  done

let solve_line req = Printf.sprintf "SOLVE %s %d\n" req.path deadline_ms

(* Closed loop: every idle connection takes the next request from
   [next]; runs until no connection has a request in flight. *)
let closed_loop conns ~next ~hard_deadline =
  let answers = ref [] in
  let issue c =
    match next () with
    | None -> ()
    | Some req ->
      c.bytes <- 0;
      c.current <- Some (req, Util.now ());
      send c (solve_line req)
  in
  List.iter issue conns;
  let busy () = List.filter (fun c -> c.current <> None) conns in
  while busy () <> [] do
    if Util.now () > hard_deadline then failwith "requests still unanswered at the watchdog";
    let fds = List.map (fun c -> c.fd) (busy ()) in
    match Unix.select fds [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            read_lines c (fun line ->
                match on_line c line with
                | Some a ->
                  answers := a :: !answers;
                  issue c
                | None -> ()))
        conns
  done;
  List.rev !answers

(* The timed stream: whole rounds, until [seconds] have passed and at
   least [min_requests] were sent. *)
let stream ?(min_requests = 0) inputs ~seconds =
  let per = Array.length inputs.rounds.(0) in
  let k = ref 0 and t0 = ref nan in
  fun () ->
    if Float.is_nan !t0 then t0 := Util.now ();
    if !k mod per = 0 && !k >= min_requests && Util.now () -. !t0 >= seconds then None
    else
      match request_at inputs !k with
      | None -> None
      | Some r ->
        incr k;
        Some r

type setup = {
  inputs : inputs;
  server : server;
  conns : conn list;
  setup_s : float;
}

let teardown s =
  List.iter (fun c -> Unix.close c.fd) s.conns;
  shutdown s.server

(* Set up [times] times (inputs generated and written, server started,
   answering PING on every connection); keep the last. *)
let setup ~times ~exe ~make_inputs =
  let once () =
    let (inputs, server, conns), t =
      Util.timed (fun () ->
          let inputs = make_inputs () in
          let server = launch exe in
          let conns = List.init connections (fun _ -> connect server.port) in
          List.iter ping conns;
          (inputs, server, conns))
    in
    { inputs; server; conns; setup_s = t }
  in
  let rec go k acc =
    let s = once () in
    if k = 1 then (s, Util.median (s.setup_s :: acc))
    else begin
      teardown s;
      go (k - 1) (s.setup_s :: acc)
    end
  in
  go times []

let check_all tally answers =
  List.iter
    (fun a -> check_answer tally a.req ~verdict:a.verdict ~model_line:a.model_line)
    answers

(* A list as a request source. *)
let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | r :: tl ->
      rest := tl;
      Some r

(* Every timed run reads at least this many answers, so that at least
   ten samples lie beyond the 95th percentile. *)
let min_requests = 200

(* The networked phase: warm-up one request at a time, then the timed
   closed loop; latencies, throughput, what the headers say. *)
let networked s ~seconds ~hard_deadline tally =
  check_all tally (closed_loop [ List.hd s.conns ] ~next:(of_list s.inputs.warmup) ~hard_deadline);
  let t_first = Util.now () in
  let answers =
    closed_loop s.conns ~next:(stream ~min_requests s.inputs ~seconds) ~hard_deadline
  in
  let t_last = Util.now () in
  let rss = Util.vm_hwm_mb (string_of_int s.server.pid) in
  check_all tally answers;
  (answers, t_last -. t_first, rss)

let end_to_end ~exe ~make_inputs ~seconds ~hard_deadline tally =
  let s, setup_s = setup ~times:3 ~exe ~make_inputs in
  let answers, wall, rss = networked s ~seconds ~hard_deadline tally in
  teardown s;
  let lat = List.map (fun a -> 1000.0 *. a.latency) answers in
  let n = float_of_int (List.length answers) in
  let per_round = float_of_int (Array.length s.inputs.rounds.(0)) in
  [
    ("t_all_s", "s", per_round *. wall /. n);
    ("jobs_per_s", "jobs/s", n /. wall);
    ("latency_p50_ms", "ms", Util.quantile 0.5 lat);
    ("latency_p95_ms", "ms", Util.quantile 0.95 lat);
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MB", rss);
  ]

(* --- the traced run --------------------------------------------------- *)

let warm_prefix = "warm-up "

type traced = {
  treq : request;
  warm : bool;
  answer : Server.answer option;  (** [None]: the submit was refused *)
  bytes : int;
  lines : string list;
}

(* The requests in process, the way the event loop serves them: this
   domain parses, submits and renders, the engine's workers solve, and
   up to [connections] requests are in flight.  Every layer call is
   inside a span under the request's root span; "server.wait" runs
   from submit's return to the answer callback. *)
let in_process ~inputs ~seconds ~hard_deadline tr tally =
  let eng = Server.create ~config:engine_config () in
  let lock = Mutex.create () and cond = Condition.create () in
  let finished = Queue.create () in
  let results = ref [] in
  let issue ~warm req =
    let key = (if warm then warm_prefix else "") ^ req.path in
    let root = Trace.fresh tr and start = Util.now () in
    let sp name f = Trace.span tr ~parent:root ~key name (fun _ -> f ()) in
    let flat = sp "cnf.parse" (fun () -> Cnf.Dimacs.read_flat_file req.path) in
    let ticket =
      sp "server.submit" (fun () ->
          Server.submit_flat eng ~deadline:(float_of_int deadline_ms /. 1000.0) flat)
    in
    let submitted = Util.now () in
    let job = (req, warm, key, root, start, submitted, flat) in
    match ticket with
    | Error _ ->
      Mutex.lock lock;
      Queue.push (job, None, submitted) finished;
      Mutex.unlock lock
    | Ok t ->
      Server.on_answer eng t (fun a ->
          let at = Util.now () in
          Mutex.lock lock;
          Queue.push (job, Some a, at) finished;
          Condition.signal cond;
          Mutex.unlock lock)
  in
  let complete ~seq ((req, warm, key, root, start, submitted, flat), answer, at) =
    Trace.add tr ~parent:root ~key "server.wait" ~start:submitted ~stop:at;
    let lines =
      match answer with
      | None -> []
      | Some a ->
        Trace.span tr ~parent:root ~key "protocol.render" (fun _ ->
            Server.Protocol.answer_lines ~seq ~file:req.path
              ~num_vars:flat.Cnf.Flat.num_vars a)
    in
    Trace.add tr ~id:root ~key "request" ~start ~stop:(Util.now ());
    (* Probes of work the engine does inside submit, timed on their own. *)
    ignore (Trace.span tr ~key "cnf.fingerprint" (fun _ -> Cnf.Fingerprint.of_flat flat));
    (match answer with
     | Some { Server.verdict = Server.Sat m; _ } ->
       ignore (Trace.span tr ~key "cnf.eval" (fun _ -> Cnf.Flat.eval flat m))
     | _ -> ());
    results :=
      { treq = req; warm; answer; bytes = (Unix.stat req.path).Unix.st_size; lines }
      :: !results
  in
  let seq = ref 0 and inflight = ref 0 in
  let wait_one () =
    Mutex.lock lock;
    while Queue.is_empty finished do
      if Util.now () > hard_deadline then failwith "in-process watchdog";
      Condition.wait cond lock
    done;
    let f = Queue.pop finished in
    Mutex.unlock lock;
    decr inflight;
    complete ~seq:!seq f;
    incr seq
  in
  let run_stream ~slots next =
    let rec go () =
      if !inflight >= slots then begin
        wait_one ();
        go ()
      end
      else
        match next () with
        | Some (req, warm) ->
          incr inflight;
          issue ~warm req;
          go ()
        | None ->
          if !inflight > 0 then begin
            wait_one ();
            go ()
          end
    in
    go ()
  in
  let warm = of_list inputs.warmup in
  run_stream ~slots:1 (fun () -> Option.map (fun r -> (r, true)) (warm ()));
  let next = stream inputs ~seconds in
  run_stream ~slots:connections (fun () -> Option.map (fun r -> (r, false)) (next ()));
  let st = Server.stats eng in
  Server.shutdown eng;
  List.iter
    (fun r ->
      match (r.answer, r.lines) with
      | None, _ -> Tally.fail tally (r.treq.path ^ ": submit refused")
      | Some _, _header :: verdict :: rest ->
        check_answer tally r.treq ~verdict ~model_line:(List.nth_opt rest 0)
      | Some _, _ -> Tally.fail tally (r.treq.path ^ ": no verdict line"))
    !results;
  (List.rev !results, st)

let per_layer ~exe ~make_inputs ~seconds ~hard_deadline ~tr tally =
  let half = seconds /. 2.0 in
  let s, _ = setup ~times:1 ~exe ~make_inputs in
  let answers, _, _ = networked s ~seconds:half ~hard_deadline tally in
  teardown s;
  let results, st = in_process ~inputs:s.inputs ~seconds:half ~hard_deadline tr tally in
  let selfs = Trace.self_times tr in
  (* name -> key -> self seconds *)
  let by_name name =
    List.filter_map
      (fun ((sp : Trace.span), self) -> if sp.name = name then Some (sp.key, self) else None)
      selfs
  in
  let is_warm key = String.starts_with ~prefix:warm_prefix key in
  let timed name =
    List.filter_map (fun (k, v) -> if is_warm k then None else Some v) (by_name name)
  in
  let mb = List.fold_left (fun acc r -> if r.warm then acc else acc +. float_of_int r.bytes) 0.0 results /. 1e6 in
  let solved =
    List.filter_map
      (fun r ->
        match r.answer with
        | Some ({ Server.source = Server.Solved; _ } as a) -> Some a
        | _ -> None)
      results
  in
  let med xs = if xs = [] then 0.0 else Util.median xs in
  let ms = List.map (fun x -> 1000.0 *. x) in
  let solve_walls = List.map (fun (a : Server.answer) -> a.Server.solve_wall) solved in
  let stat f = List.map (fun (a : Server.answer) -> float_of_int (f a.Server.stats)) solved in
  (* Per timed request: submit + wait, the part of the latency the
     answer header's wall_ms covers. *)
  let engine_part =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun ((sp : Trace.span), self) ->
        if (sp.name = "server.submit" || sp.name = "server.wait")
           && not (is_warm sp.key)
        then
          Hashtbl.replace tbl sp.parent
            (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.parent)))
      selfs;
    Hashtbl.fold (fun _ v acc -> (1000.0 *. v) :: acc) tbl []
  in
  let lat = List.map (fun a -> 1000.0 *. a.latency) answers in
  let net = List.map (fun a -> (1000.0 *. a.latency) -. a.wall_ms) answers in
  let walls = List.map (fun a -> a.wall_ms) answers in
  let parse = timed "cnf.parse" and fp = timed "cnf.fingerprint" in
  [
    ("cnf.parse_s", "s", med parse);
    ("cnf.parse_mb_per_s", "MB/s", mb /. Util.sum parse);
    ("cnf.fingerprint_s", "s", med fp);
    ("cnf.fingerprint_mb_per_s", "MB/s", mb /. Util.sum fp);
    ("cnf.eval_s", "s", med (timed "cnf.eval"));
    ("server.submit_ms", "ms", med (ms (timed "server.submit")));
    ( "server.overhead_ms", "ms",
      med (List.map (fun (a : Server.answer) -> 1000.0 *. (a.Server.wall -. a.solve_wall)) solved) );
    ("server.cache_hits", "count", float_of_int st.Server.Metrics.cache_hits);
    ( "server.solved", "count",
      float_of_int (st.Server.Metrics.solved_sat + st.Server.Metrics.solved_unsat) );
    ("protocol.render_ms", "ms", med (ms (timed "protocol.render")));
    ("sat.solve_s", "s", med solve_walls);
    ("sat.decisions", "count", med (stat (fun s -> s.Sat.Solver.decisions)));
    ("sat.conflicts", "count", med (stat (fun s -> s.Sat.Solver.conflicts)));
    ( "sat.props_per_s", "1/s",
      Util.sum (stat (fun s -> s.Sat.Solver.propagations)) /. Util.sum solve_walls );
    ("net.overhead_ms", "ms", med net);
    ("net.answer_kb", "KB", med (List.map (fun a -> float_of_int a.answer_bytes /. 1024.0) answers));
    ( "trace.accounted_pct", "%",
      100.0 *. (med engine_part +. med net) /. med lat );
    ( "trace.overhead_pct", "%",
      100.0 *. (med engine_part -. med walls) /. med walls );
  ]
