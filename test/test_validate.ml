(** Tests for the P4 deployment-artifact validator. *)

open Newton_p4gen

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let compile = Newton_compiler.Compose.compile

let test_catalog_rules_all_clean () =
  List.iter
    (fun q ->
      let issues = Validate.check_compiled (compile q) in
      Alcotest.(check (list string))
        (Printf.sprintf "Q%d artifacts lint clean" q.Newton_query.Ast.id)
        []
        (List.map Validate.issue_to_string issues))
    (Newton_query.Catalog.all () @ Newton_query.Catalog.extras ())

let test_inventory_recovers_declared_tables () =
  let layout = { Emit.stages = 2; registers = 64; rules_per_table = 16 } in
  let program = Emit.program ~layout () in
  let inv = Validate.inventory_of_program program in
  (* 2 stages x 2 sets x 5 kinds (K,H,S,R,T) + init/resume/recirc/fin *)
  checki "table count" 24 (Hashtbl.length inv.Validate.tables);
  checkb "sizes recovered" true
    (Hashtbl.find inv.Validate.tables "newton_k_s0_m0" = 16);
  checkb "init table larger" true
    (Hashtbl.find inv.Validate.tables "newton_init" = 64)

let test_unknown_table_detected () =
  let program = Emit.program ~layout:{ Emit.default_layout with Emit.stages = 1 } () in
  let rules_json =
    {|[{"table":"newton_k_s9_m0","priority":1,"match":[],"action":"newton_k_s9_m0_select","params":{}}]|}
  in
  match Validate.check ~program ~rules_json with
  | [ Validate.Unknown_table "newton_k_s9_m0" ] -> ()
  | l -> Alcotest.failf "expected unknown-table, got %d issues" (List.length l)

let test_unknown_action_detected () =
  let program = Emit.program () in
  let rules_json =
    {|[{"table":"newton_k_s0_m0","priority":1,"match":[],"action":"explode","params":{}}]|}
  in
  match Validate.check ~program ~rules_json with
  | [ Validate.Unknown_action { table = "newton_k_s0_m0"; action = "explode" } ] -> ()
  | l -> Alcotest.failf "expected unknown-action, got %d issues" (List.length l)

let test_overflow_detected () =
  let layout = { Emit.stages = 1; registers = 16; rules_per_table = 2 } in
  let program = Emit.program ~layout () in
  let entry =
    {|{"table":"newton_k_s0_m0","priority":1,"match":[],"action":"newton_k_s0_m0_select","params":{}}|}
  in
  let rules_json = "[" ^ String.concat "," [ entry; entry; entry ] ^ "]" in
  checkb "overflow reported" true
    (List.exists
       (function Validate.Table_overflow { entries = 3; size = 2; _ } -> true | _ -> false)
       (Validate.check ~program ~rules_json))

let test_malformed_document () =
  let program = Emit.program () in
  (match Validate.check ~program ~rules_json:"{not json" with
  | [ Validate.Malformed _ ] -> ()
  | _ -> Alcotest.fail "expected malformed issue");
  match Validate.check ~program ~rules_json:{|{"not":"an array"}|} with
  | [ Validate.Malformed _ ] -> ()
  | _ -> Alcotest.fail "expected top-level issue"

let test_rules_beyond_emitted_stages_flagged () =
  let small = { Emit.default_layout with Emit.stages = 3 } in
  let compiled = compile (Newton_query.Catalog.q4 ()) in
  (* A query placed beyond the layout's stages has no rule encoding:
     generation refuses it with a typed issue. *)
  checkb "stage overflow refused at generation" true
    (List.exists
       (function
         | Validate.Unemittable (Rules.Stage_overflow _) -> true | _ -> false)
       (Validate.check_compiled ~layout:small compiled));
  (* Rules generated for the full layout but deployed on the smaller
     program reference tables that do not exist — the validator
     catches the misdeployment. *)
  let issues =
    Validate.check ~program:(Emit.program ~layout:small ())
      ~rules_json:(Rules.to_json (Rules.entries_exn compiled))
  in
  checkb "stage overflow caught as unknown tables" true
    (List.exists (function Validate.Unknown_table _ -> true | _ -> false) issues)

let suite =
  [
    ("catalog rules all clean", `Quick, test_catalog_rules_all_clean);
    ("inventory recovers declared tables", `Quick, test_inventory_recovers_declared_tables);
    ("unknown table detected", `Quick, test_unknown_table_detected);
    ("unknown action detected", `Quick, test_unknown_action_detected);
    ("overflow detected", `Quick, test_overflow_detected);
    ("malformed document", `Quick, test_malformed_document);
    ("rules beyond emitted stages flagged", `Quick, test_rules_beyond_emitted_stages_flagged);
  ]
