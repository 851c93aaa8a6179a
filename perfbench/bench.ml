(* The benchmark program.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One workload per process.  Its inputs are built from the seed before
   anything is timed; set-up runs at least three times and reports the
   median.  The declared fixed work then runs untraced, [repeats] times
   each on its own set-up (the end-to-end metrics); with --trace 1 it
   runs once more on a fresh set-up with spans on, and the per-layer
   metrics replace the end-to-end ones.  The last
   line of stdout is one JSON object: correct, attempted, failed,
   metrics.  A run that breaks its declared shape exits 2 without a
   result. *)

module type WORKLOAD = sig
  type state

  val repeats : int
  (** set-up + fixed work pairs one untraced measurement is made of *)

  val setup : seed:int -> seconds:int -> state
  val run : state -> traced:bool -> Util.run
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("pcap_ingest", (module Pcap_ingest));
    ("bulk_replay", (module Bulk_replay));
    ("intent_churn", (module Intent_churn));
    ("p4_diff", (module P4_diff));
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("pkt_rate_pps", "pkt/s");
    ("op_rate_per_s", "1/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("ok_frac", "frac");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("host.calib_ops_per_s", "1/s");
    ("bench.trace_overhead_frac", "frac");
    ("bench.accounted_frac", "frac");
    ("ingest.decode_us_per_pkt", "us");
    ("ingest.stream_us_per_pkt", "us");
    ("ingest.skipped_frames", "count");
    ("engine.us_per_pkt", "us");
    ("engine.minor_words_per_pkt", "words");
    ("engine.major_collections", "count");
    ("engine.reports", "count");
    ("arena.build_us_per_pkt", "us");
    ("parallel.replay_us_per_pkt", "us");
    ("parallel.jobs1_us_per_pkt", "us");
    ("parallel.merge_ms", "ms");
    ("parallel.shard_skew", "ratio");
    ("parallel.minor_words_per_pkt", "words");
    ("parallel.major_collections", "count");
    ("parallel.report_mismatch", "count");
    ("api.request_decode_us", "us");
    ("analysis.make_ctx_us", "us");
  ]
  @ List.map
      (fun (module P : Newton_analysis.Pass.S) -> ("analysis.pass." ^ P.name ^ "_us", "us"))
      Newton_analysis.Check.passes
  @ [
    ("compiler.compose_us", "us");
    ("controller.deploy_us", "us");
    ("controller.undeploy_us", "us");
    ("api.response_encode_us", "us");
    ("service.handle_self_us", "us");
    ("service.retained_intents", "count");
    ("service.minor_words_per_op", "words");
    ("service.major_collections", "count");
    ("controller.replay_us_per_pkt", "us");
    ("p4gen.emit_ms", "ms");
    ("p4sim.parse_ms", "ms");
    ("p4gen.rules_us", "us");
    ("p4sim.phv_us_per_pkt", "us");
    ("p4sim.interp_us_per_pkt", "us");
    ("p4sim.passes_per_pkt", "count");
    ("p4sim.minor_words_per_pkt", "words");
    ("p4sim.major_collections", "count");
    ("p4sim.unencodable", "count");
  ]
  @ List.init 17 (fun i -> (Printf.sprintf "p4sim.diff_q%02d_ms" (i + 1), "ms"))

(* Every value with all its digits: the result line is read by tools
   that compare runs. *)
let print_result ~correct ~attempted ~failed units metrics =
  let metric (n, v) =
    if not (Float.is_finite v) then Util.invalid "metric %s is %f" n v;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v (List.assoc n units)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* The end-to-end figures of runs: (pkt/s, op/s, p50 seconds, tail
   seconds).  Rates are total work over total time, latencies pooled
   over every op of every run.  The host this was built on runs in
   slow and fast phases lasting seconds; a whole-run mean averages
   over them, where a median over short segments would pick one. *)
let figures (rs : Util.run list) =
  let sum f = List.fold_left (fun a r -> a +. f r) 0. rs in
  let wall = sum (fun r -> r.Util.wall) in
  let lat = Array.concat (List.map (fun r -> r.Util.lat) rs) in
  (* the highest percentile up to p99 with ten samples beyond it *)
  let tail = Float.min 0.99 (1. -. (10. /. float_of_int (Array.length lat))) in
  ( sum (fun r -> float_of_int r.Util.packets) /. wall,
    float_of_int (Array.length lat) /. wall,
    Util.median lat,
    Util.percentile lat tail )

let main (module W : WORKLOAD) ~name ~seed ~seconds ~trace =
  let calib = Util.calib_ops_per_s () in
  let setup_times = ref [] in
  let timed_setup () =
    Gc.compact ();
    let dt, s = Util.time (fun () -> W.setup ~seed ~seconds) in
    setup_times := dt :: !setup_times;
    s
  in
  (* Set-up at least three times and for at least 1.5 s in all, so that
     a short set-up still gets a steady median; the extra states are
     dropped. *)
  let total () = List.fold_left ( +. ) 0. !setup_times in
  while
    List.length !setup_times < 3 - W.repeats
    || (total () < 1.5 && List.length !setup_times < 30)
  do
    ignore (timed_setup ())
  done;
  let runs =
    List.init W.repeats (fun _ ->
        let s = timed_setup () in
        Gc.compact ();
        W.run s ~traced:false)
  in
  let pps, ops_s, p50, tail = figures runs in
  let all f = List.for_all f runs in
  let failed = List.fold_left (fun a r -> a + r.Util.failed) 0 runs in
  let attempted = List.fold_left (fun a r -> a + Array.length r.Util.lat) 0 runs in
  let correct = all (fun r -> r.Util.correct) in
  if not trace then
    print_result ~correct ~attempted ~failed end_to_end
      [
        ("setup_s", Util.median (Array.of_list !setup_times));
        ("pkt_rate_pps", pps);
        ("op_rate_per_s", ops_s);
        ("op_p50_us", p50 *. 1e6);
        ("op_p99_us", tail *. 1e6);
        ("ok_frac", Util.median (Array.of_list (List.map (fun r -> r.Util.ok_frac) runs)));
        ("peak_rss_mb", Util.peak_rss_mb ());
      ]
  else begin
    Gc.compact ();
    let s = W.setup ~seed ~seconds in
    Gc.compact ();
    Span.enable ();
    let t = W.run s ~traced:true in
    Span.disable ();
    Span.write (Util.work_path (Printf.sprintf "spans-%s.tsv" name));
    let traced_pps, _, _, _ = figures [ t ] in
    let measured =
      ("host.calib_ops_per_s", calib)
      :: ("bench.trace_overhead_frac", (pps /. traced_pps) -. 1.)
      :: t.Util.layers
    in
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n per_layer) then
          Util.invalid "layer metric %s is not declared" n)
      measured;
    (* A layer the workload does not run did no work: 0. *)
    print_result
      ~correct:(correct && t.Util.correct)
      ~attempted:(Array.length t.Util.lat) ~failed:t.Util.failed per_layer
      (List.map
         (fun (n, _) -> (n, Option.value (List.assoc_opt n measured) ~default:0.))
         per_layer)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length (sets the op count)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some w -> (
      try main w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with Util.Invalid_run msg ->
        prerr_endline ("invalid run: " ^ msg);
        exit 2)
