(** Tests for the P4 interpreter subsystem: program parsing, packet
    synthesis, rule-document round-trips, and the differential harness
    proving the interpreted pipeline reports exactly what the
    simulator engine reports on the pinned mixed corpus. *)

open Newton_p4sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let program_text = lazy (Newton_p4gen.Emit.program ())
let program = lazy (P4parse.parse (Lazy.force program_text))

(* ---------------- parsing the emitted program ---------------- *)

let test_emitted_program_parses () =
  let p = Lazy.force program in
  checkb "headers_t declared" true
    (P4ast.find_struct p "headers_t" <> None);
  checkb "metadata_t declared" true
    (P4ast.find_struct p "metadata_t" <> None);
  checkb "parser has a start state" true (P4ast.find_state p "start" <> None);
  let ingress =
    List.find_opt
      (fun (c : P4ast.control) -> c.P4ast.c_tables <> [])
      p.P4ast.controls
  in
  match ingress with
  | None -> Alcotest.fail "no control with tables"
  | Some c ->
      checkb "ingress declares the register file" true
        (List.exists (fun (n, _) -> n = "newton_state") c.P4ast.c_registers);
      (* default layout: 12 stages x 2 sets x (K,H,S,R,T) + init,
         resume, recirc, fin *)
      checki "table count" ((12 * 2 * 5) + 4) (List.length c.P4ast.c_tables)

let test_parse_rejects_garbage () =
  checkb "syntax error is typed" true
    (try
       ignore (P4parse.parse "control { this is not p4 }");
       false
     with P4parse.Parse_error _ -> true)

(* ---------------- rule-document round-trip ---------------- *)

let test_rules_json_round_trip () =
  List.iter
    (fun q ->
      let entries =
        Newton_p4gen.Rules.entries_exn
          (Newton_compiler.Compose.compile q)
      in
      let back = P4rules.of_json (Newton_p4gen.Rules.to_json entries) in
      checkb
        (Printf.sprintf "Q%d rules survive JSON round-trip"
           q.Newton_query.Ast.id)
        true
        (entries = back))
    [ Newton_query.Catalog.q4 (); Newton_query.Catalog.q12 ();
      Newton_query.Catalog.q17 () ]

let test_bad_rule_document_rejected () =
  checkb "malformed document is typed" true
    (try ignore (P4rules.of_json "{\"not\":\"an array\"}"); false
     with P4rules.Bad_document _ -> true)

(* ---------------- packet synthesis ---------------- *)

let test_phv_typed_errors () =
  let expect what err pkt =
    match Phv.synthesize pkt with
    | Error e -> Alcotest.(check string) what err (Phv.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: expected %s" what err
  in
  expect "dns needs port 53"
    (Phv.error_to_string Phv.Dns_without_port_53)
    (Newton_packet.Packet.make ~proto:17 ~src_port:1234 ~dst_port:4444
       ~dns_qr:1 ());
  expect "tunnels are v4-only"
    (Phv.error_to_string Phv.Tunnel_over_ipv6)
    (Newton_packet.Packet.make ~ip_ver:6 ~proto:17 ~tun_id:9 ());
  expect "ip version is 4 or 6"
    (Phv.error_to_string (Phv.Bad_ip_version 5))
    (Newton_packet.Packet.make ~ip_ver:5 ())

let test_phv_corpus_fully_encodable () =
  (* Every packet the generator can produce has a wire encoding. *)
  let n_bad = ref 0 in
  List.iter
    (fun pkt ->
      match Phv.synthesize pkt with Ok _ -> () | Error _ -> incr n_bad)
    (Corpus.coverage_packets ~scale:0.02 ());
  checki "unencodable packets" 0 !n_bad

(* ---------------- the differential ---------------- *)

(* The tentpole acceptance check: identical report multisets between
   the simulator engine and the interpreted P4 pipeline for every
   catalog query Q1-Q17 on the pinned mixed v4/v6/ICMPv6/tunnel
   corpus, with full packet coverage and at least one report per
   query (so the identity is never vacuous). *)
let test_differential_all_queries () =
  let packets = Corpus.coverage_packets () in
  List.iter
    (fun q ->
      match Diff.run_query q packets with
      | Error issue ->
          Alcotest.failf "Q%d has no rule encoding: %s" q.Newton_query.Ast.id
            (Newton_p4gen.Rules.issue_to_string issue)
      | Ok r ->
          checki
            (Printf.sprintf "Q%d: all packets encodable" q.Newton_query.Ast.id)
            0 r.Diff.skipped;
          checkb
            (Printf.sprintf "Q%d: engine actually reports"
               q.Newton_query.Ast.id)
            true
            (r.Diff.engine_reports <> []);
          if not (Diff.matched r) then
            Alcotest.failf "Q%d diverged: %s" q.Newton_query.Ast.id
              (Diff.describe r))
    (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ())

(* Divergence is detected, not defined away: perturb one interpreter
   report and the harness must flag the outcome. *)
let test_differential_detects_divergence () =
  let packets = Corpus.coverage_packets ~scale:0.02 () in
  match Diff.run_query (Newton_query.Catalog.q1 ()) packets with
  | Error _ -> Alcotest.fail "q1 must have a rule encoding"
  | Ok r ->
      checkb "baseline matches" true (Diff.matched r);
      checkb "baseline reports" true (r.Diff.p4_reports <> []);
      let broken =
        { r with Diff.p4_reports = List.tl r.Diff.p4_reports }
      in
      checkb "dropped report detected" false (Diff.matched broken);
      checkb "disagreement localized" true
        (match Diff.first_disagreement broken with
        | Some (`Engine_only _) -> true
        | _ -> false)

(* The staged program is cached per layout and shared by every call:
   interleave calls over two layouts, repeat queries, and require each
   outcome to equal a run on a freshly parsed and staged program, so
   no registers, entries or dedup state leak through the cache. *)
let test_differential_cache_isolation () =
  (* Calls over two layouts interleave and every (layout, query) pair
     repeats: each repeat must equal that pair's first outcome, so no
     registers, entries or dedup state leak between calls through the
     cached staged program. *)
  let packets = Corpus.coverage_packets ~scale:0.02 () in
  let wide = { Newton_p4gen.Emit.default_layout with Newton_p4gen.Emit.stages = 16 } in
  let q1 = Newton_query.Catalog.q1 () and q12 = Newton_query.Catalog.q12 () in
  let first = Hashtbl.create 4 in
  List.iter
    (fun (layout, q) ->
      let what =
        Printf.sprintf "Q%d at %d stages" q.Newton_query.Ast.id
          layout.Newton_p4gen.Emit.stages
      in
      match Diff.run_query ~layout q packets with
      | Ok outcome -> (
          checkb (what ^ ": matches the engine") true (Diff.matched outcome);
          checkb (what ^ ": reports") true (outcome.Diff.p4_reports <> []);
          match Hashtbl.find_opt first what with
          | None -> Hashtbl.replace first what outcome
          | Some reference ->
              checkb (what ^ ": equals its first outcome") true
                (outcome = reference))
      | Error _ -> Alcotest.failf "%s has no rule encoding" what)
    (List.concat
       (List.init 2 (fun _ ->
            [ (Newton_p4gen.Emit.default_layout, q1); (wide, q1);
              (Newton_p4gen.Emit.default_layout, q12); (wide, q12) ])))

(* ---------------- interpreter semantics ---------------- *)

(* Small hand-written programs pin what the interpreter promises
   independently of the emitted pipeline.  Every program shares one
   skeleton: a 10-byte header [h] (k:16, x:32, y:32), an optional
   4-byte header [g] after it, one register file, a ternary+range
   table [t_tr] and an exact table [t_ex].  Each test supplies the
   apply block; digests are the only observable. *)
let skeleton apply_body =
  Printf.sprintf
    {|
header h_t { bit<16> k; bit<32> x; bit<32> y; }
header g_t { bit<32> v; }
struct headers_t { h_t h; g_t g; }
struct metadata_t {
    @field_list(1) bit<16> keep;
    bit<16> k;
    bit<8>  narrow;
    bit<32> out;
    bit<32> scratch;
    bit<60> wide;
}
struct report_t { bit<32> a; }
parser P(packet_in pkt, out headers_t hdr, inout metadata_t meta,
         inout standard_metadata_t std_meta) {
    state start {
        pkt.extract(hdr.h);
        transition select(hdr.h.k) {
            0xFFFF: accept;
            default: parse_g;
        }
    }
    state parse_g {
        pkt.extract(hdr.g);
        transition accept;
    }
}
control Ingress(inout headers_t hdr, inout metadata_t meta,
                inout standard_metadata_t std_meta) {
    register<bit<32>>(4) regs;
    action set_out(bit<32> v) { meta.out = v; }
    action miss() { meta.out = 99; }
    table t_tr {
        key = { meta.k : ternary; hdr.h.x : range; }
        actions = { set_out; miss; NoAction; }
        default_action = miss();
    }
    table t_ex {
        key = { meta.k : exact; }
        actions = { set_out; NoAction; }
        default_action = NoAction();
    }
    apply {
%s
    }
}
V1Switch(P(), Ingress()) main;
|}
    apply_body

let interp_of body = Interp.create (P4parse.parse (skeleton body))

(* Header bytes: h = (k, x, y) and, when given, g = v. *)
let pkt ?g ~k ~x ~y () =
  let b = Buffer.create 14 in
  Buffer.add_uint16_be b k;
  Buffer.add_int32_be b (Int32.of_int x);
  Buffer.add_int32_be b (Int32.of_int y);
  Option.iter (fun v -> Buffer.add_int32_be b (Int32.of_int v)) g;
  Buffer.contents b

let entry ?(matches = []) ?(params = []) ?(priority = 1) table action =
  { Newton_p4gen.Rules.table; matches; action; params; priority }

let digests = Alcotest.(list (array int))

let run_out i bytes =
  match Interp.run i bytes with
  | [ [| v |] ] -> v
  | ds -> Alcotest.failf "expected one 1-field digest, got %d" (List.length ds)

let lookup_body =
  {|
        meta.k = hdr.h.k;
        t_tr.apply();
        digest<report_t>(1, { meta.out });|}

let test_interp_priority_tie () =
  let i = interp_of lookup_body in
  Interp.install i
    [ entry "t_tr" "set_out" ~params:[ ("v", "1") ] ~priority:5
        ~matches:[ Newton_p4gen.Rules.M_ternary ("meta.k", 0x10, 0xF0) ];
      entry "t_tr" "set_out" ~params:[ ("v", "2") ] ~priority:5
        ~matches:[ Newton_p4gen.Rules.M_range ("hdr.h.x", 0, 100) ] ];
  checki "tie: earlier-installed entry wins" 1
    (run_out i (pkt ~k:0x12 ~x:7 ~y:0 ()));
  Interp.install i
    [ entry "t_tr" "set_out" ~params:[ ("v", "3") ] ~priority:6
        ~matches:[ Newton_p4gen.Rules.M_range ("hdr.h.x", 5, 9) ] ];
  checki "higher priority beats install order" 3
    (run_out i (pkt ~k:0x12 ~x:7 ~y:0 ()));
  checki "only the tied pair hits outside [5,9]" 1
    (run_out i (pkt ~k:0x12 ~x:50 ~y:0 ()))

let test_interp_unconstrained_keys () =
  let i = interp_of lookup_body in
  (* no match on either key: ternary mask 0 and full range *)
  Interp.install i [ entry "t_tr" "set_out" ~params:[ ("v", "7") ] ];
  checki "wildcard entry hits" 7 (run_out i (pkt ~k:0xABC ~x:0x7FFFFFFF ~y:0 ()));
  checki "wildcard entry hits zero keys" 7 (run_out i (pkt ~k:0 ~x:0 ~y:0 ()))

let test_interp_default_on_miss () =
  let i = interp_of lookup_body in
  checki "empty table runs the default" 99 (run_out i (pkt ~k:1 ~x:1 ~y:0 ()));
  Interp.install i
    [ entry "t_tr" "set_out" ~params:[ ("v", "4") ]
        ~matches:[ Newton_p4gen.Rules.M_exact ("meta.k", 1) ] ];
  checki "exact-in-ternary hit" 4 (run_out i (pkt ~k:1 ~x:1 ~y:0 ()));
  checki "miss runs the default" 99 (run_out i (pkt ~k:2 ~x:1 ~y:0 ()));
  Interp.clear_entries i;
  checki "cleared table runs the default" 99 (run_out i (pkt ~k:1 ~x:1 ~y:0 ()))

let test_interp_exact_table () =
  let i =
    interp_of
      {|
        meta.k = hdr.h.k;
        t_ex.apply();
        digest<report_t>(1, { meta.out });|}
  in
  Interp.install i
    [ entry "t_ex" "set_out" ~params:[ ("v", "10") ]
        ~matches:[ Newton_p4gen.Rules.M_exact ("meta.k", 3) ];
      entry "t_ex" "set_out" ~params:[ ("v", "11") ] ~priority:2
        ~matches:[ Newton_p4gen.Rules.M_exact ("meta.k", 3) ];
      entry "t_ex" "set_out" ~params:[ ("v", "12") ]
        ~matches:[ Newton_p4gen.Rules.M_exact ("meta.k", 4) ] ];
  checki "higher-priority duplicate wins" 11 (run_out i (pkt ~k:3 ~x:0 ~y:0 ()));
  checki "other key" 12 (run_out i (pkt ~k:4 ~x:0 ~y:0 ()));
  checki "NoAction default leaves metadata zero" 0
    (run_out i (pkt ~k:5 ~x:0 ~y:0 ()));
  checkb "unknown table is an install error" true
    (try Interp.install i [ entry "t_nope" "set_out" ]; false
     with Interp.Install_error _ -> true);
  checkb "undeclared action is an install error" true
    (try Interp.install i [ entry "t_ex" "miss" ]; false
     with Interp.Install_error _ -> true)

let test_interp_width_and_wrap () =
  let i =
    interp_of
      {|
        meta.narrow = hdr.h.x;
        meta.wide = hdr.h.x + hdr.h.y;
        meta.scratch = hdr.h.x - hdr.h.y;
        meta.out = hdr.h.x << 4;
        digest<report_t>(1, { meta.narrow, meta.wide, meta.scratch, meta.out,
                              (bit<4>) hdr.h.x });|}
  in
  Alcotest.check digests "truncation and 32-bit wrap"
    [ [| 0x01; 0xF0000000; 0xF0000002; 0x10; 0x1 |] ]
    (Interp.run i (pkt ~k:1 ~x:0xF0000001 ~y:0xFFFFFFFF ~g:0 ()));
  Alcotest.check digests "small operands"
    [ [| 0x34; 0x1234 + 5; 0x1234 - 5; 0x12340; 0x4 |] ]
    (Interp.run i (pkt ~k:1 ~x:0x1234 ~y:5 ~g:0 ()))

let test_interp_invalid_header_reads_zero () =
  let i =
    interp_of
      {|
        if (hdr.g.isValid()) { meta.scratch = 1; }
        digest<report_t>(1, { hdr.g.v, meta.scratch,
                              hdr.g.isValid() ? 1 : 0 });|}
  in
  Alcotest.check digests "long packet parses g"
    [ [| 0xCAFE; 1; 1 |] ]
    (Interp.run i (pkt ~k:1 ~x:0 ~y:0 ~g:0xCAFE ()));
  (* same k, but the packet ends before g: g stays invalid and its
     field must not leak from the previous packet *)
  Alcotest.check digests "short packet leaves g invalid and zero"
    [ [| 0; 0; 0 |] ]
    (Interp.run i (pkt ~k:1 ~x:0 ~y:0 ()));
  Alcotest.check digests "select to accept skips g"
    [ [| 0; 0; 0 |] ]
    (Interp.run i (pkt ~k:0xFFFF ~x:0 ~y:0 ~g:0xCAFE ()))

let test_interp_recirculation () =
  let i =
    interp_of
      {|
        digest<report_t>(1, { std_meta.instance_type, std_meta.ingress_port,
                              meta.keep, meta.scratch });
        if (std_meta.instance_type == 0) {
            meta.keep = 7;
            meta.scratch = 5;
            recirculate_preserving_field_list(1);
        }|}
  in
  checki "no run yet" 0 (Interp.last_passes i);
  Alcotest.check digests "field list survives, other metadata cleared"
    [ [| 0; 3; 0; 0 |]; [| 4; 3; 7; 0 |] ]
    (Interp.run i ~ingress_port:3 (pkt ~k:1 ~x:0 ~y:0 ()));
  checki "two passes" 2 (Interp.last_passes i);
  Alcotest.check digests "next packet starts clean"
    [ [| 0; 0; 0; 0 |]; [| 4; 0; 7; 0 |] ]
    (Interp.run i (pkt ~k:1 ~x:0 ~y:0 ()))

let test_interp_registers () =
  let i =
    interp_of
      {|
        bit<32> tmp;
        regs.read(tmp, hdr.h.x);
        tmp = tmp + hdr.h.y;
        regs.write(hdr.h.x, tmp);
        digest<report_t>(1, { tmp });|}
  in
  checki "register words" 4 (Interp.register_words i);
  checki "first add" 5 (run_out i (pkt ~k:1 ~x:3 ~y:5 ()));
  checki "state persists across packets" 12 (run_out i (pkt ~k:1 ~x:3 ~y:7 ()));
  checki "write wraps to 32 bits" 11
    (run_out i (pkt ~k:1 ~x:3 ~y:0xFFFFFFFF ()));
  checki "other word untouched" 1 (run_out i (pkt ~k:1 ~x:0 ~y:1 ()));
  checki "one pass" 1 (Interp.last_passes i);
  Interp.clear_state i;
  checki "clear_state zeroes the file" 1 (run_out i (pkt ~k:1 ~x:3 ~y:1 ()));
  checkb "out-of-bounds read is a runtime error" true
    (try ignore (Interp.run i (pkt ~k:1 ~x:4 ~y:0 ())); false
     with Interp.Runtime_error _ -> true)

let test_interp_pass_cap () =
  let i = interp_of {|        recirculate_preserving_field_list(1);|} in
  checkb "non-converging recirculation is a runtime error" true
    (try ignore (Interp.run i (pkt ~k:1 ~x:0 ~y:0 ())); false
     with Interp.Runtime_error _ -> true);
  checki "cap" 32 Interp.max_passes

let suite =
  [
    ("emitted program parses", `Quick, test_emitted_program_parses);
    ("interp priority tie", `Quick, test_interp_priority_tie);
    ("interp unconstrained keys", `Quick, test_interp_unconstrained_keys);
    ("interp default on miss", `Quick, test_interp_default_on_miss);
    ("interp exact table", `Quick, test_interp_exact_table);
    ("interp width and wrap", `Quick, test_interp_width_and_wrap);
    ("interp invalid header reads zero", `Quick, test_interp_invalid_header_reads_zero);
    ("interp recirculation", `Quick, test_interp_recirculation);
    ("interp registers", `Quick, test_interp_registers);
    ("interp pass cap", `Quick, test_interp_pass_cap);
    ("parse rejects garbage", `Quick, test_parse_rejects_garbage);
    ("rules json round trip", `Quick, test_rules_json_round_trip);
    ("bad rule document rejected", `Quick, test_bad_rule_document_rejected);
    ("phv typed errors", `Quick, test_phv_typed_errors);
    ("phv corpus fully encodable", `Quick, test_phv_corpus_fully_encodable);
    ("differential detects divergence", `Quick, test_differential_detects_divergence);
    ("differential cache isolation", `Quick, test_differential_cache_isolation);
    ("differential all queries", `Slow, test_differential_all_queries);
  ]
