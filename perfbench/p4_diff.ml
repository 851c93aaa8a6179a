(** p4_diff: the engine-vs-emitted-P4 differential.

    [Diff.run_query] for every catalog query Q1-Q17 over one fixed
    slice of the pinned coverage corpus, in whole rounds — every run
    makes the same calls in the same order, so the mix of unlike ops
    (one query's diff costs up to ~3x another's) never changes.  An op
    is one [run_query] call; it is ok when the two report multisets are
    identical.  The slice is pinned (its start is fixed), so every seed
    replays the same packets; the seed only shuffles the order of the
    queries within each round, which must not change any outcome. *)

module Diff = Newton_p4sim.Diff
module Engine = Newton_runtime.Engine
module Packet = Newton_packet.Packet

let slice_start = 5000
let slice_len = 1000
let queries = 17

type state = {
  slice : Packet.t list;
  catalog : Newton_query.Ast.t array;
  order : int array array;  (** per round, the catalog indices in call order *)
}

let repeats = 1

let setup ~seed ~seconds =
  let rounds = Util.declared ~seconds ~per_s:2 ~min:15 in
  let corpus = Array.of_list (Newton_p4sim.Corpus.coverage_packets ()) in
  let rng = Newton_util.Prng.of_int seed in
  {
    slice = Array.to_list (Array.sub corpus slice_start slice_len);
    catalog = Array.init queries (fun i -> Newton_query.Catalog.by_id (i + 1));
    order =
      Array.init rounds (fun _ ->
          let o = Array.init queries Fun.id in
          Newton_util.Prng.shuffle rng o;
          o);
  }

let name_of q = Printf.sprintf "p4sim.diff_q%02d" q

(* Traced run only: the calls one [run_query] makes, made again from
   outside on the same query and packets and timed one by one.  The
   window roll mirrors the harness so the interpreter does the same
   work; report dedup and digest decoding are left to the harness. *)
let decompose ~op query packets =
  let passes = ref 0 and minor = ref 0. and majors = ref 0 in
  Span.with_ ~op "shadow" (fun () ->
      let compiled =
        Span.with_ "compiler.compose" (fun () -> Newton_compiler.Compose.compile query)
      in
      let rules =
        Span.with_ "p4gen.rules" (fun () ->
            Newton_p4gen.Rules.entries_exn compiled)
      in
      let engine = Engine.create ~sink:Newton_telemetry.Stats.null ~switch_id:0 () in
      ignore (Engine.install engine compiled);
      let text = Span.with_ "p4gen.emit" (fun () -> Newton_p4gen.Emit.program ()) in
      let program = Span.with_ "p4sim.parse" (fun () -> Newton_p4sim.P4parse.parse text) in
      let interp = Newton_p4sim.Interp.create program in
      Newton_p4sim.Interp.install interp rules;
      let window = ref 0 in
      List.iter
        (fun pkt ->
          match Span.with_ "p4sim.phv" (fun () -> Newton_p4sim.Phv.synthesize pkt) with
          | Error _ -> ()
          | Ok bytes ->
              if
                Array.exists
                  (fun (ie : Newton_compiler.Ir.init_entry) ->
                    List.for_all
                      (fun (f, v, m) -> Packet.get pkt f land m = v)
                      ie.Newton_compiler.Ir.ie_matches)
                  compiled.Newton_compiler.Compose.init_entries
              then begin
                let w =
                  int_of_float (Packet.ts pkt /. query.Newton_query.Ast.window)
                in
                if w <> !window then begin
                  window := w;
                  Newton_p4sim.Interp.clear_state interp
                end
              end;
              Span.with_ "engine.process" (fun () -> Engine.process_packet engine pkt);
              let w0 = Gc.minor_words () and m0 = Util.majors () in
              ignore
                (Span.with_ "p4sim.interp" (fun () ->
                     Newton_p4sim.Interp.run interp
                       ~ingress_port:(Packet.get pkt Newton_packet.Field.Ingress_port)
                       bytes));
              minor := !minor +. (Gc.minor_words () -. w0);
              majors := !majors + Util.majors () - m0;
              passes := !passes + Newton_p4sim.Interp.last_passes interp)
        packets);
  (!passes, !minor, !majors)

let run st ~traced =
  let rounds = Array.length st.order in
  let ops = rounds * queries in
  let lat = Array.make ops 0. in
  let matched = ref 0 and unencodable = ref 0 in
  let t0 = Clock.now () in
  for r = 0 to rounds - 1 do
    for k = 0 to queries - 1 do
      let op = (r * queries) + k in
      let i = st.order.(r).(k) in
      let s = Clock.now () in
      let outcome =
        Span.with_ ~op (name_of (i + 1)) (fun () -> Diff.run_query st.catalog.(i) st.slice)
      in
      lat.(op) <- Clock.now () -. s;
      match outcome with
      | Ok o ->
          if Diff.matched o then incr matched;
          unencodable := !unencodable + o.Diff.skipped
      | Error issue ->
          Util.invalid "p4_diff: Q%d has no rule encoding: %s" (i + 1)
            (Newton_p4gen.Rules.issue_to_string issue)
    done
  done;
  let wall = Clock.now () -. t0 in
  let layers =
    if not traced then []
    else begin
      let passes = ref 0 and minor = ref 0. and majors = ref 0 in
      Array.iteri
        (fun i q ->
          let p, w, m = decompose ~op:i q st.slice in
          passes := !passes + p;
          minor := !minor +. w;
          majors := !majors + m)
        st.catalog;
      let t = Span.totals () in
      let get n = Option.value (List.assoc_opt n t) ~default:(0., 0., 0) in
      let self = Span.self_of t in
      let round = queries * slice_len in
      let one_round =
        List.fold_left (fun a i -> let _, tot, _ = get (name_of i) in a +. tot) 0.
          (List.init queries succ)
        /. float_of_int rounds
      in
      let parts =
        List.fold_left (fun a n -> a +. self n) 0.
          [ "compiler.compose"; "p4gen.rules"; "p4gen.emit"; "p4sim.parse";
            "p4sim.phv"; "engine.process"; "p4sim.interp" ]
      in
      [
        ("p4gen.emit_ms", self "p4gen.emit" *. 1e3 /. float_of_int queries);
        ("p4sim.parse_ms", self "p4sim.parse" *. 1e3 /. float_of_int queries);
        ("p4gen.rules_us", self "p4gen.rules" *. 1e6 /. float_of_int queries);
        ("p4sim.phv_us_per_pkt", Util.us_per (self "p4sim.phv") round);
        ("p4sim.interp_us_per_pkt", Util.us_per (self "p4sim.interp") round);
        ("p4sim.passes_per_pkt", float_of_int !passes /. float_of_int round);
        ("p4sim.minor_words_per_pkt", !minor /. float_of_int round);
        ("p4sim.major_collections", float_of_int !majors);
        ("p4sim.unencodable", float_of_int !unencodable);
        ("engine.us_per_pkt", Util.us_per (self "engine.process") round);
        ("bench.accounted_frac", parts /. one_round);
      ]
      @ List.init queries (fun i ->
            let _, tot, n = get (name_of (i + 1)) in
            (name_of (i + 1) ^ "_ms", tot *. 1e3 /. float_of_int n))
    end
  in
  {
    Util.wall;
    packets = ops * slice_len;
    lat;
    failed = ops - !matched;
    ok_frac = float_of_int !matched /. float_of_int ops;
    correct = !matched = ops && !unencodable = 0;
    layers;
  }
