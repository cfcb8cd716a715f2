(* The alg1-* workloads: Algorithm 1 in process, on one domain, through
   [Pipeline.run (Pipeline.ours ())] — the fixed balance-led recipe
   with the cost-customized 4-LUT mapper that `eda4sat solve` uses
   without --agent. *)

type instance = {
  slot : string;  (** the same family and size in every round *)
  name : string;
  inst : Eda4sat.Instance.t;
  table : unit -> Expected.entry;  (** computed after set-up, untimed *)
}

let config = Eda4sat.Pipeline.ours ()

let recipe =
  match config.Eda4sat.Pipeline.recipe with
  | Eda4sat.Pipeline.Fixed ops -> ops
  | _ -> invalid_arg "Pipeline.ours () without an agent is a fixed recipe"

(* --- inputs ----------------------------------------------------------- *)

(* Each round runs fresh inputs made from (seed, round), so a run
   averages over several draws of every slot. *)

(* The I-suite sizes of [Workloads.Suites.i_suite]: (PIs, ANDs). *)
let lec_sizes = [| (26, 900); (30, 1050); (28, 980); (24, 850); (20, 700) |]
let lec_count = 16

(* 16 LEC miters; every fourth has an injected fault. *)
let lec ~seed ~round =
  List.init lec_count (fun i ->
      let num_pis, num_ands = lec_sizes.(i mod Array.length lec_sizes) in
      let faulty = i mod 4 = 0 in
      let mseed =
        ((seed * 7919) + (round * 1_000_003) + (i * 104729) + 17) land 0x3FFFFFFF
      in
      let slot =
        Printf.sprintf "lec-%02d-%s-%d" i (if faulty then "fault" else "equiv") num_ands
      in
      let name = Printf.sprintf "%s@%d.%d" slot seed round in
      let g = Workloads.Lec.generate ~buggy:faulty ~seed:mseed ~num_pis ~num_ands () in
      {
        slot;
        name;
        inst = Eda4sat.Instance.of_circuit ~name g;
        table = (fun () -> Expected.miter ~name ~seed:(mseed + 1) ~faulty g);
      })

(* The C1-C8 bases with their clauses (and the literals inside each)
   in a seeded order.  Renaming variables is left out: it turns the
   miters and pigeonhole, which cnf2aig recovers as given, into much
   harder and far more erratic instances than Table 6 has. *)
let satcomp ~bases ~seed ~round =
  List.mapi
    (fun i (b : Bases.base) ->
      let c = Cnf_data.of_formula (b.make ()) in
      let p = Cnf_data.reorder (Util.rng ((seed * 1_000_003) + (round * 31) + i)) c in
      let name = Printf.sprintf "%s@%d.%d" b.name seed round in
      {
        slot = b.name;
        name;
        inst = Eda4sat.Instance.of_cnf ~name (Cnf_data.to_formula p);
        table =
          (fun () ->
            let _, e = Bases.resolve (Lazy.force bases) b in
            { e with Expected.name; source = "base " ^ b.name ^ ": " ^ e.Expected.source });
      })
    Bases.satcomp

(* --- running ---------------------------------------------------------- *)

let verdict_of = function
  | Sat.Solver.Sat _ -> Some Expected.Sat
  | Sat.Solver.Unsat -> Some Expected.Unsat
  | Sat.Solver.Unknown -> None

let record tally (e : Expected.entry) result =
  match verdict_of result with
  | None -> Tally.fail tally (e.name ^ ": no verdict")
  | Some v -> Tally.check tally (Expected.check e v)

(* Whole rounds, each over a fresh set of inputs (made and looked up
   in the table before its timed part), until another round would end
   past [seconds]; at least one. *)
let rounds ~seconds ~make f =
  let t0 = Util.now () in
  let rec go k =
    f (List.map (fun i -> (i, i.table ())) (make k));
    let elapsed = Util.now () -. t0 in
    if elapsed +. (elapsed /. float_of_int (k + 1)) <= seconds then go (k + 1)
  in
  go 0

let add tbl k x =
  Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* Per slot: the median over rounds; summed over slots. *)
let sum_of_medians samples =
  Hashtbl.fold (fun _ xs acc -> acc +. Util.median xs) samples 0.0

let run_untraced ~seconds ~tally ~make =
  let t_all = Hashtbl.create 32 and lat = ref [] and busy = ref 0.0 in
  rounds ~seconds ~make (fun instances ->
      List.iter
        (fun (i, e) ->
          let r, wall = Util.timed (fun () -> Eda4sat.Pipeline.run config i.inst) in
          record tally e r.Eda4sat.Pipeline.result;
          let t = Eda4sat.Pipeline.t_all r in
          add t_all i.slot t;
          lat := (1000.0 *. t) :: !lat;
          busy := !busy +. wall)
        instances);
  Hashtbl.iter
    (fun slot xs ->
      Util.log "  %-22s T_all median %.3f s over %d rounds" slot (Util.median xs)
        (List.length xs))
    t_all;
  [
    ("t_all_s", "s", sum_of_medians t_all);
    ("jobs_per_s", "jobs/s", float_of_int (List.length !lat) /. !busy);
    ("latency_p50_ms", "ms", Util.quantile 0.5 !lat);
    ("latency_p95_ms", "ms", Util.quantile 0.95 !lat);
  ]

(* The stages of [Pipeline.transform], then the solver, called one by
   one on the same instance, each inside its own span. *)
type counts = {
  ands_out : int;
  luts : int;
  cnf_clauses : int;
  decisions : int;
  conflicts : int;
  propagations : int;
}

let staged tr key inst =
  Trace.span tr ~key "alg1.instance" (fun root ->
      let sp name f = Trace.span tr ~parent:root ~key name (fun _ -> f ()) in
      let g0 =
        sp "core.to_aig" (fun () ->
            Eda4sat.Instance.to_aig
              ~advanced:config.Eda4sat.Pipeline.advanced_recovery inst)
      in
      let g =
        List.fold_left
          (fun g op ->
            sp ("synth." ^ Synth.Recipe.op_to_string op) (fun () ->
                Synth.Recipe.apply op g))
          g0 recipe
      in
      let nl =
        sp "lutmap.map" (fun () ->
            Lutmap.Mapper.run ~config:config.Eda4sat.Pipeline.mapper g)
      in
      let enc = sp "lutmap.encode" (fun () -> Lutmap.Encode.encode nl) in
      let f = enc.Lutmap.Encode.formula in
      let result, st = sp "sat.solve" (fun () -> Sat.Solver.solve f) in
      ( result,
        {
          ands_out = Aig.Graph.num_ands g;
          luts = Lutmap.Netlist.num_luts nl;
          cnf_clauses = Cnf.Formula.num_clauses f;
          decisions = st.Sat.Solver.decisions;
          conflicts = st.Sat.Solver.conflicts;
          propagations = st.Sat.Solver.propagations;
        } ))

let layers =
  [ "core.to_aig"; "synth.balance"; "synth.rewrite"; "synth.resub";
    "lutmap.map"; "lutmap.encode"; "sat.solve" ]

(* Each round runs every instance untraced, then staged under spans
   keyed by slot: per-layer self times, summed over slots (median over
   rounds), and how far they account for the untraced T_all measured
   alongside. *)
let run_traced ~seconds ~tally ~tr ~make =
  let untraced = Hashtbl.create 32 and counts = Hashtbl.create 32 in
  rounds ~seconds ~make (fun instances ->
      List.iter
        (fun (i, e) ->
          let r = Eda4sat.Pipeline.run config i.inst in
          record tally e r.Eda4sat.Pipeline.result;
          add untraced i.slot (Eda4sat.Pipeline.t_all r);
          let result, c = staged tr i.slot i.inst in
          record tally e result;
          add counts i.slot c)
        instances);
  (* Self seconds per (layer, slot, root span), then per (layer, slot)
     one sample per round; the root spans' durations per slot. *)
  let per_root = Hashtbl.create 256 and roots = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.parent < 0 then add roots s.key (s.stop -. s.start)
      else
        let k = (s.name, s.key, s.parent) in
        Hashtbl.replace per_root k
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_root k)))
    (Trace.self_times tr);
  let by_slot = Hashtbl.create 64 in
  Hashtbl.iter (fun (name, slot, _) t -> add by_slot (name, slot) t) per_root;
  let over_slots name f =
    Hashtbl.fold (fun (n, _) xs acc -> if n = name then acc +. f xs else acc) by_slot 0.0
  in
  let layer_sum name = over_slots name Util.median in
  let count f =
    Hashtbl.fold
      (fun _ cs acc -> acc +. Util.median (List.map (fun c -> float_of_int (f c)) cs))
      counts 0.0
  in
  let solve_s = over_slots "sat.solve" Util.sum in
  let props =
    Hashtbl.fold
      (fun _ cs acc -> acc +. Util.sum (List.map (fun c -> float_of_int c.propagations) cs))
      counts 0.0
  in
  let layer_total = Util.sum (List.map layer_sum layers) in
  let untraced_total = sum_of_medians untraced in
  List.map (fun l -> (l ^ "_s", "s", layer_sum l)) layers
  @ [
      ("synth.ands_out", "count", count (fun c -> c.ands_out));
      ("lutmap.luts", "count", count (fun c -> c.luts));
      ("lutmap.cnf_clauses", "count", count (fun c -> c.cnf_clauses));
      ("sat.decisions", "count", count (fun c -> c.decisions));
      ("sat.conflicts", "count", count (fun c -> c.conflicts));
      ("sat.props_per_s", "1/s", props /. solve_s);
      ("trace.accounted_pct", "%", 100.0 *. layer_total /. untraced_total);
      ( "trace.overhead_pct", "%",
        100.0 *. (sum_of_medians roots -. untraced_total) /. untraced_total );
    ]
