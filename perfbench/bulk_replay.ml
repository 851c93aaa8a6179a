(** bulk_replay: the [newton run --jobs 2] path.

    An in-memory v4 Zipf trace with Q1-Q9 installed is fed in fixed
    1024-packet chunks to [Parallel_engine.process_packets] at jobs=2
    (several queries, so the CLI's [Flow] sharding): arena build,
    compiled replay on two domains, report merge — no decode and no
    interpreter.  The chunk list is replayed [passes] times.  An op is
    one chunk plus the drain of its reports; it is ok when those
    reports equal the jobs=1 reference for the same chunk, computed in
    set-up.  Mismatches are today's Flow-sharding report loss and are
    counted, not hidden.

    This workload is not in BENCHMARK.json: on a 2-vCPU host its jobs=2
    figures fall into per-process speed regimes (see NOTES.md), so it is
    run by hand, and pcap_ingest's traced run reports its layers through
    {!traced_layers}. *)

module Pe = Newton_runtime.Parallel_engine

let chunks_per_pass = 100
let chunk = 1024
let jobs = 2

type state = {
  chunks : Newton_packet.Packet.t array array;
  passes : int;
  engine : Pe.t;  (** jobs=2, Q1-Q9 installed *)
  reference : Newton_query.Report.t list array;  (** per op, sorted *)
}

let fresh_engine ~jobs =
  let e = Pe.create ~jobs ~switch_id:0 () in
  List.iter
    (fun q -> ignore (Pe.install e (Newton_compiler.Compose.compile q)))
    (Newton_query.Catalog.all ());
  e

let prepare ~seed ~passes =
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 12_000)
  in
  let pkts = Newton_trace.Gen.packets trace in
  if Array.length pkts < chunks_per_pass * chunk then
    Util.invalid "bulk_replay: generated %d packets, need %d"
      (Array.length pkts) (chunks_per_pass * chunk);
  let chunks =
    Array.init chunks_per_pass (fun c -> Array.sub pkts (c * chunk) chunk)
  in
  let one = fresh_engine ~jobs:1 in
  let reference =
    Array.init (passes * chunks_per_pass) (fun i ->
        Pe.process_packets one chunks.(i mod chunks_per_pass);
        Util.sorted_reports (Pe.drain_reports one))
  in
  { chunks; passes; engine = fresh_engine ~jobs; reference }

let repeats = 1

let setup ~seed ~seconds =
  prepare ~seed ~passes:(Util.declared ~seconds ~per_s:1 ~min:10)

let run st ~traced =
  let ops = st.passes * chunks_per_pass in
  let lat = Array.make ops 0. in
  let drained = Array.make ops [] in
  let loads = Array.make jobs 0 in
  let minor = ref 0. and majors = ref 0 in
  let op i pkts =
    if not traced then begin
      Pe.process_packets st.engine pkts;
      Pe.drain_reports st.engine
    end
    else
      Span.with_ ~op:i "parallel.op" (fun () ->
          let arenas =
            Span.with_ "arena.build" (fun () -> Pe.build_arenas st.engine pkts)
          in
          Array.iteri
            (fun s l -> loads.(s) <- loads.(s) + l)
            (Newton_runtime.Arena.loads arenas);
          let w0, m0 = Util.gc_counts () in
          Span.with_ "parallel.replay" (fun () -> Pe.replay_arenas st.engine arenas);
          let w1, m1 = Util.gc_counts () in
          minor := !minor +. (w1 -. w0);
          majors := !majors + m1 - m0;
          Span.with_ "parallel.merge" (fun () -> Pe.drain_reports st.engine))
  in
  let t0 = Clock.now () in
  for i = 0 to ops - 1 do
    let s = Clock.now () in
    drained.(i) <- op i st.chunks.(i mod chunks_per_pass);
    lat.(i) <- Clock.now () -. s
  done;
  let wall = Clock.now () -. t0 in
  let packets = ops * chunk in
  if Pe.packets_seen st.engine <> packets then
    Util.invalid "bulk_replay: engine saw %d packets, fed %d"
      (Pe.packets_seen st.engine) packets;
  (* chunks whose reports differ, and reports in the difference *)
  let mismatched = ref 0 and differing = ref 0 in
  Array.iteri
    (fun i rs ->
      let rs = Util.sorted_reports rs and want = st.reference.(i) in
      let d = Util.missing want rs + Util.missing rs want in
      if d > 0 then incr mismatched;
      differing := !differing + d)
    drained;
  let layers =
    if not traced then []
    else begin
      (* The jobs=1 reference path on the same chunks, for comparison;
         its own root spans, outside the op spans. *)
      let one = fresh_engine ~jobs:1 in
      for i = 0 to ops - 1 do
        Span.with_ ~op:i "parallel.jobs1" (fun () ->
            Pe.process_packets one st.chunks.(i mod chunks_per_pass);
            ignore (Pe.drain_reports one))
      done;
      let t = Span.totals () in
      let self = Span.self_of t in
      let mean = float_of_int packets /. float_of_int jobs in
      let build = self "arena.build" and replay = self "parallel.replay" in
      let merge = self "parallel.merge" and opself = self "parallel.op" in
      [
        ("arena.build_us_per_pkt", Util.us_per build packets);
        ("parallel.replay_us_per_pkt", Util.us_per replay packets);
        ("parallel.jobs1_us_per_pkt", Util.us_per (self "parallel.jobs1") packets);
        ("parallel.merge_ms", merge *. 1e3);
        ( "parallel.shard_skew",
          float_of_int (Array.fold_left max 0 loads) /. mean );
        ("parallel.minor_words_per_pkt", !minor /. float_of_int packets);
        ("parallel.major_collections", float_of_int !majors);
        ("parallel.report_mismatch", float_of_int !differing);
        ("bench.accounted_frac", (build +. replay +. merge +. opself) /. wall);
      ]
    end
  in
  {
    Util.wall;
    packets;
    lat;
    failed = !mismatched;
    ok_frac = float_of_int (ops - !mismatched) /. float_of_int ops;
    correct = true;
    layers;
  }

(** The parallel layers from one traced pass over the chunk list. *)
let traced_layers ~seed =
  let r = run (prepare ~seed ~passes:1) ~traced:true in
  List.filter (fun (n, _) -> n <> "bench.accounted_frac") r.Util.layers
