(** intent_churn: the intent path under live replay.

    An in-process [Daemon] over [Topo.linear 4] with survivors Q1 and Q4
    installed is driven by one client through [Daemon.handle_line] JSON
    lines.  Each cycle submits the next ephemeral shape of the fixed
    cycle Q2, Q3, Q5, Q6, withdraws it, and runs one budget-bounded
    [replay_step].  An op is one submit, timed from the line going in to
    the [Accepted] line coming out.  The trace holds more than
    [cycles * budget] packets, so every step replays a full budget. *)

module Api = Newton_service.Api
module Daemon = Newton_service.Daemon
module Replay = Newton_service.Replay
module Deploy = Newton_controller.Deploy
module Check = Newton_analysis.Check

let budget = 32
let survivors = [ 1; 4 ]
let ephemerals = [| 2; 3; 5; 6 |]

type state = {
  cycles : int;
  daemon : Daemon.t;  (** survivors accepted, replay not started *)
  static_reports : Newton_query.Report.t list;  (** deploy-first run *)
}

let topo () = Newton_network.Topo.linear 4

let submit_line q =
  Api.request_to_line (Api.Submit { spec = Api.Catalog q; name = None })

let survivor_reports deploy =
  Util.sorted_reports
    (List.filter
       (fun r -> List.mem r.Newton_query.Report.query_id survivors)
       (Deploy.reconciled_reports deploy))

let compiled q = Newton_compiler.Compose.compile (Newton_query.Catalog.by_id q)

(* A deployment with the survivors placed, outside any daemon. *)
let survivor_deploy () =
  let d = Deploy.create (topo ()) in
  List.iter
    (fun q ->
      match Deploy.deploy_checked d (compiled q) with
      | Ok _ -> ()
      | Error _ -> Util.invalid "intent_churn: survivor Q%d refused" q)
    survivors;
  d

(* A session is 3000 cycles on a fresh daemon; a run measures eight, so
   that it lasts long enough to average over the host's slow and fast
   phases without letting the daemon's history grow further. *)
let repeats = 8

let setup ~seed ~seconds =
  let cycles = Util.declared ~seconds ~per_s:300 ~min:1000 in
  let want = (cycles * budget) + budget in
  let trace =
    Newton_trace.Gen.generate ~attacks:Newton_trace.Attack.default_suite ~seed
      (Newton_trace.Profile.with_flows Newton_trace.Profile.caida_like
         (want / 12))
  in
  let pkts = Newton_trace.Gen.packets trace in
  if Array.length pkts < want then
    Util.invalid "intent_churn: generated %d packets, need %d"
      (Array.length pkts) want;
  let trace =
    Newton_trace.Gen.of_packets ~name:"intent_churn" (Array.sub pkts 0 want)
  in
  let replay = Replay.of_trace ~topo:(topo ()) ~desc:"intent_churn" trace in
  let daemon = Daemon.create ~replay_budget:budget ~replay (topo ()) in
  List.iter
    (fun q ->
      match Daemon.handle_line daemon (submit_line q) with
      | Api.Accepted _ -> ()
      | r -> Util.invalid "intent_churn: survivor Q%d: %s" q (Api.response_summary r))
    survivors;
  (* Reference: the survivors deployed before any traffic, same trace. *)
  let static = survivor_deploy () in
  ignore
    (Replay.run_to_end
       (Replay.of_trace ~topo:(topo ()) ~desc:"static" trace)
       static);
  { cycles; daemon; static_reports = survivor_reports static }

(* Traced run only: the calls [handle_line] makes, made again from
   outside on the same inputs and timed one by one, so the daemon's own
   share is its span minus these. *)
let decompose ~op ~shadow line q =
  Span.with_ ~op "shadow" (fun () ->
      ignore (Span.with_ "api.request_decode" (fun () -> Api.request_of_line line));
      let query = Newton_query.Catalog.by_id q in
      let ctx = Span.with_ "analysis.make_ctx" (fun () -> Check.make_ctx query) in
      List.iter
        (fun (module P : Newton_analysis.Pass.S) ->
          ignore (Span.with_ ("analysis.pass." ^ P.name) (fun () -> P.run ctx)))
        Check.passes;
      let c =
        Span.with_ "compiler.compose" (fun () ->
            Newton_compiler.Compose.compile query)
      in
      match Span.with_ "controller.deploy" (fun () -> Deploy.deploy_checked shadow c) with
      | Ok (uid, _) ->
          ignore (Span.with_ "controller.undeploy" (fun () -> Deploy.undeploy shadow uid))
      | Error _ -> Util.invalid "intent_churn: shadow deploy of Q%d refused" q)

let run st ~traced =
  let d = st.daemon in
  let replay = Option.get (Daemon.replay d) in
  let lines = Array.map submit_line ephemerals in
  let lat = Array.make st.cycles 0. in
  let accepted = ref 0 and packets = ref 0 in
  let minor = ref 0. and majors = ref 0 in
  let shadow = if traced then Some (survivor_deploy ()) else None in
  let shadow_time = ref 0. in
  let t0 = Clock.now () in
  for c = 0 to st.cycles - 1 do
    let e = c mod Array.length ephemerals in
    let s0 = Clock.now () in
    let resp, out =
      Span.with_ ~op:c "service.op" (fun () ->
          let resp =
            Span.with_ "service.handle_line" (fun () ->
                (* allocation of the daemon's own work; the encoded
                   line's length varies with the timestamps it prints *)
                if not traced then Daemon.handle_line d lines.(e)
                else begin
                  let w0 = Gc.minor_words () and m0 = Util.majors () in
                  let resp = Daemon.handle_line d lines.(e) in
                  minor := !minor +. (Gc.minor_words () -. w0);
                  majors := !majors + Util.majors () - m0;
                  resp
                end)
          in
          (resp, Span.with_ "api.response_encode" (fun () -> Api.response_to_line resp)))
    in
    lat.(c) <- Clock.now () -. s0;
    if out = "" then Util.invalid "intent_churn: submit %d got no response" c;
    (match resp with
    | Api.Accepted info ->
        incr accepted;
        let wline = Api.request_to_line (Api.Withdraw info.Newton_service.Intent.i_id) in
        (match
           Span.with_ ~op:c "service.withdraw" (fun () -> Daemon.handle_line d wline)
         with
        | Api.Withdrawn_ok _ -> ()
        | r -> Util.invalid "intent_churn: withdraw: %s" (Api.response_summary r));
        Option.iter
          (fun shadow ->
            let dt, () =
              Util.time (fun () ->
                  decompose ~op:c ~shadow lines.(e) ephemerals.(e);
                  ignore (Span.with_ ~op:c "shadow" (fun () ->
                      Span.with_ "api.request_decode" (fun () -> Api.request_of_line wline))))
            in
            shadow_time := !shadow_time +. dt)
          shadow
    | _ -> ());
    let n = Span.with_ ~op:c "controller.replay" (fun () -> Daemon.replay_step d) in
    if n <> budget then
      Util.invalid "intent_churn: replay step %d ran %d packets, budget %d" c n budget;
    if Replay.finished replay then
      Util.invalid "intent_churn: replay ran dry at cycle %d of %d" c st.cycles;
    packets := !packets + n
  done;
  let wall = Clock.now () -. t0 -. !shadow_time in
  ignore (Replay.run_to_end replay (Daemon.deploy d));
  let lost = Util.missing st.static_reports (survivor_reports (Daemon.deploy d)) in
  let layers =
    if not traced then []
    else begin
      let t = Span.totals () in
      let self = Span.self_of t in
      let per_cycle s = s *. 1e6 /. float_of_int st.cycles in
      let passes =
        List.map
          (fun (module P : Newton_analysis.Pass.S) ->
            ("analysis.pass." ^ P.name ^ "_us", self ("analysis.pass." ^ P.name)))
          Check.passes
      in
      let parts =
        self "api.request_decode" +. self "analysis.make_ctx" +. self "compiler.compose"
        +. self "controller.deploy" +. self "controller.undeploy"
        +. List.fold_left (fun a (_, s) -> a +. s) 0. passes
      in
      let handle = self "service.handle_line" +. self "service.withdraw" in
      let encode = self "api.response_encode" and replayed = self "controller.replay" in
      [
        ("api.request_decode_us", per_cycle (self "api.request_decode"));
        ("analysis.make_ctx_us", per_cycle (self "analysis.make_ctx"));
        ("compiler.compose_us", per_cycle (self "compiler.compose"));
        ("controller.deploy_us", per_cycle (self "controller.deploy"));
        ("controller.undeploy_us", per_cycle (self "controller.undeploy"));
        ("api.response_encode_us", per_cycle encode);
        ("service.handle_self_us", per_cycle (handle -. parts));
        ("service.retained_intents", float_of_int (List.length (Daemon.intents d)));
        ("service.minor_words_per_op", !minor /. float_of_int st.cycles);
        ("service.major_collections", float_of_int !majors);
        ("controller.replay_us_per_pkt", Util.us_per replayed !packets);
        ( "bench.accounted_frac",
          (handle +. encode +. replayed +. self "service.op") /. wall );
      ]
      @ List.map (fun (n, s) -> (n, per_cycle s)) passes
    end
  in
  {
    Util.wall;
    packets = !packets;
    lat;
    failed = st.cycles - !accepted;
    ok_frac = float_of_int !accepted /. float_of_int st.cycles;
    correct = lost = 0;
    layers;
  }
