(** pcap_ingest: the [newton run --pcap] path at jobs=1.

    A mixed v4/v6/ICMPv6/VXLAN/GRE capture (the extended attack corpus
    on the CAIDA-like background) is written once in setup, then
    streamed [passes] times: [Capture.with_source] -> [Stream.run]
    (Asap, Block, default chunk) -> one [Engine] with Q1-Q17 installed.
    An op is one stream chunk, timed from the previous chunk's hand-off
    to the end of its own engine call, so it covers the pulls that
    filled it and the engine work on it.  The capture holds a whole
    number of chunks, so every op is alike. *)

module Engine = Newton_runtime.Engine
module Capture = Newton_ingest.Capture
module Stream = Newton_ingest.Stream
module Stats = Newton_telemetry.Stats

let chunks_per_pass = 100
let chunk = Stream.default_chunk

type state = {
  seed : int;
  path : string;
  frames : int;  (** records in the capture *)
  passes : int;
  engine : Engine.t;  (** Q1-Q17 installed, untouched so far *)
  reference : Newton_query.Report.t list;
}

let queries () = List.init 17 (fun i -> Newton_query.Catalog.by_id (i + 1))

let fresh_engine () =
  let e = Engine.create ~switch_id:0 () in
  List.iter
    (fun q -> ignore (Engine.install e (Newton_compiler.Compose.compile q)))
    (queries ());
  e

let repeats = 1

let setup ~seed ~seconds =
  let passes = Util.declared ~seconds ~per_s:2 ~min:20 in
  let frames = chunks_per_pass * chunk in
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.extended_suite ~seed
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like 12_000)
  in
  let pkts = Newton_trace.Gen.packets trace in
  if Array.length pkts < frames then
    Util.invalid "pcap_ingest: generated %d packets, need %d"
      (Array.length pkts) frames;
  let trace =
    Newton_trace.Gen.of_packets ~name:"pcap_ingest" (Array.sub pkts 0 frames)
  in
  let path = Util.work_path (Printf.sprintf "pcap_ingest-%d.pcap" seed) in
  Capture.export trace path;
  (* Reference: the same file loaded into memory and replayed [passes]
     times through the engine's compiled program. *)
  let loaded = Capture.load path in
  let flat = Newton_runtime.Arena.build1 (Newton_trace.Gen.packets loaded) in
  let ref_engine = fresh_engine () in
  for _ = 1 to passes do
    Engine.process_flat ref_engine flat
  done;
  {
    seed;
    path;
    frames;
    passes;
    engine = fresh_engine ();
    reference = Engine.drain_reports ref_engine;
  }

let run st ~traced =
  let ops = st.passes * chunks_per_pass in
  let lat = Array.make ops 0. in
  let k = ref 0 in
  let delivered = ref 0 in
  let minor = ref 0. and majors = ref 0 in
  let engine_call batch =
    if traced then begin
      let w0 = Gc.minor_words () and m0 = Util.majors () in
      Span.with_ ~op:!k "engine.process" (fun () ->
          Array.iter (Engine.process_packet st.engine) batch);
      minor := !minor +. (Gc.minor_words () -. w0);
      majors := !majors + Util.majors () - m0
    end
    else Array.iter (Engine.process_packet st.engine) batch
  in
  let stats = Stats.create () in
  let t0 = Clock.now () in
  for pass = 1 to st.passes do
    let last = ref (Clock.now ()) in
    let sink batch =
      engine_call batch;
      let t = Clock.now () in
      if !k < ops then lat.(!k) <- t -. !last;
      incr k;
      last := t
    in
    let summary =
      Span.with_ ~op:pass "ingest.pass" (fun () ->
          Capture.with_source ~stats st.path (fun src ->
              let src =
                if traced then fun () -> Span.with_ "ingest.decode" src else src
              in
              Stream.run ~pace:Stream.Asap ~policy:Stream.Block ~stats src sink))
    in
    if summary.Stream.dropped <> 0 then
      Util.invalid "pcap_ingest: stream dropped %d packets" summary.Stream.dropped;
    delivered := !delivered + summary.Stream.delivered
  done;
  let wall = Clock.now () -. t0 in
  if !k <> ops then Util.invalid "pcap_ingest: %d chunks, declared %d" !k ops;
  Sys.remove st.path;
  let frames = st.frames * st.passes in
  let reports = Engine.drain_reports st.engine in
  let layers =
    if not traced then []
    else
      let t = Span.totals () in
      let self = Span.self_of t in
      let decode = self "ingest.decode" in
      let stream = self "ingest.pass" in
      let engine = self "engine.process" in
      [
        ("ingest.decode_us_per_pkt", Util.us_per decode frames);
        ("ingest.stream_us_per_pkt", Util.us_per stream !delivered);
        ("ingest.skipped_frames", float_of_int (frames - !delivered));
        ("engine.us_per_pkt", Util.us_per engine !delivered);
        ("engine.minor_words_per_pkt", !minor /. float_of_int !delivered);
        ("engine.major_collections", float_of_int !majors);
        ("engine.reports", float_of_int (List.length reports));
        ("bench.accounted_frac", (decode +. stream +. engine) /. wall);
      ]
      (* bulk_replay is not gated; its parallel layers ride here *)
      @ Bulk_replay.traced_layers ~seed:st.seed
  in
  {
    Util.wall;
    packets = !delivered;
    lat;
    failed = 0;
    ok_frac = float_of_int !delivered /. float_of_int frames;
    correct = Util.same_reports reports st.reference;
    layers;
  }
