(** Runtime table-rule generation: translate a compiled query into the
    control-plane entries that configure the emitted P4 program
    ({!Emit}).  This is what the Newton controller pushes through the
    switch driver instead of reloading a program — the essence of the
    paper's contribution.

    Translation is *total or refused*: every construct the compiler can
    produce either maps onto the static program's action menu or comes
    back as a typed {!issue} (surfaced by the analyzer as NA080-NA084
    and by [newton check]) — never an exception, never a silently
    dropped match key.

    Key emission decisions (shared with {!Newton_p4sim}, see
    docs/P4GEN.md):
    - K entries carry a 60-bit key descriptor (order-preserving list of
      field codes) plus one mask parameter per canonical field, making
      the mapping total over all 18 {!Newton_packet.Field.t}
      constructors.
    - Sketch arrays are first-fit allocated inside the single
      [newton_state] register file; entries carry base offsets.
    - Result guards become range entries in the trigger (T) table: the
      guard's pass region(s) at priority 20 (action [report] or
      [NoAction]), a class-wide stop fallback at priority 5.
    - Overlapping multi-branch intents install one [newton_init] entry
      per *consistent branch subset*; extra branches run on
      recirculation passes driven by the [pending] bitmap
      ([newton_resume] / [newton_recirc] entries). *)

open Newton_packet
open Newton_compiler

type mtch =
  | M_exact of string * int
  | M_ternary of string * int * int (* field, value, mask *)
  | M_range of string * int * int   (* field, lo, hi *)

type entry = {
  table : string;
  matches : mtch list;
  action : string;
  params : (string * string) list;
  priority : int;
}

(** Why a compiled query cannot be expressed as rules for the static
    program.  [issue_to_string] renders operator-facing text. *)
type issue =
  | Too_many_keys of { branch : int; prim : int; count : int; limit : int }
  | Duplicate_key of { branch : int; prim : int; field : Field.t }
  | Unsupported_r of { branch : int; prim : int; reason : string }
  | Missing_read_target of { branch : int; prim : int;
                             target : int * int * int }
  | Registers_exhausted of { needed : int; capacity : int }
  | Too_many_branches of { branches : int; limit : int }
  | Stage_overflow of { branch : int; prim : int; stage : int; stages : int }

let issue_to_string = function
  | Too_many_keys { branch; prim; count; limit } ->
      Printf.sprintf
        "branch %d primitive %d selects %d keys; the key descriptor holds %d"
        branch prim count limit
  | Duplicate_key { branch; prim; field } ->
      Printf.sprintf
        "branch %d primitive %d selects field %s twice; the per-field key \
         copy holds one mask"
        branch prim (Field.to_string field)
  | Unsupported_r { branch; prim; reason } ->
      Printf.sprintf "branch %d primitive %d: %s" branch prim reason
  | Missing_read_target { branch; prim; target = (tb, tp, ts) } ->
      Printf.sprintf
        "branch %d primitive %d reads array (branch %d, prim %d, suite %d) \
         which this deployment does not host"
        branch prim tb tp ts
  | Registers_exhausted { needed; capacity } ->
      Printf.sprintf
        "register file exhausted: %d words needed, %d available" needed
        capacity
  | Too_many_branches { branches; limit } ->
      Printf.sprintf
        "%d branches; the pending bitmap / classifier product supports %d"
        branches limit
  | Stage_overflow { branch; prim; stage; stages } ->
      Printf.sprintf
        "branch %d primitive %d is placed in stage %d; the layout has %d \
         stages"
        branch prim stage stages

(** Maximum branches per intent expressible through the classifier
    product and the 16-bit pending bitmap. *)
let max_branches = 6

(* ---------------- shared allocator ---------------- *)

(** Allocates the two global resources rules consume: words of the
    [newton_state] register file (first-fit, never reused) and pending
    bitmap bit positions for recirculation branches.  One allocator is
    shared across every query of a deployment ([newton p4 emit --all]). *)
type allocator = {
  capacity : int;
  mutable next_word : int;
  mutable next_pending_bit : int;
}

let allocator ?state_words (layout : Emit.layout) =
  let capacity =
    match state_words with
    | Some w -> w
    | None -> Emit.state_words_of_layout layout
  in
  { capacity; next_word = 0; next_pending_bit = 0 }

let words_used a = a.next_word

(* ---------------- per-slot translation ---------------- *)

let max32 = 0xFFFFFFFF

(** Total canonical-field mapping used for classifier matches — every
    {!Field.t} constructor maps to a normalized metadata field (no
    wildcard, no [hdr.unknown]); the exhaustive-match test in
    [test_p4gen.ml] pins this. *)
let init_field_name (f : Field.t) =
  match f with
  | Field.Src_ip | Field.Dst_ip | Field.Proto | Field.Src_port
  | Field.Dst_port | Field.Tcp_flags | Field.Tcp_seq | Field.Tcp_ack
  | Field.Pkt_len | Field.Payload_len | Field.Ttl | Field.Dns_qr
  | Field.Dns_ancount | Field.Ingress_port | Field.Ip_ver
  | Field.Icmp_type | Field.Icmp_code | Field.Tun_id ->
      Emit.meta_field f

(* The 60-bit descriptor encoding the ordered key list: position p
   (low-to-high) holds Field.index + 1 in 5 bits; 0 terminates. *)
let descriptor keys =
  List.fold_left
    (fun (pos, acc) (k : Newton_query.Ast.key) ->
      (pos + 1, acc lor ((Field.index k.Newton_query.Ast.field + 1) lsl (5 * pos))))
    (0, 0) keys
  |> snd

let k_entry ~class_id (s : Ir.slot) keys =
  let table =
    Emit.table_name ~stage:s.Ir.stage ~kind:Newton_dataplane.Module_cost.K
      ~set:s.Ir.meta
  in
  if List.length keys > Emit.desc_positions then
    Error
      (Too_many_keys
         { branch = s.Ir.branch; prim = s.Ir.prim; count = List.length keys;
           limit = Emit.desc_positions })
  else
    let fields = List.map (fun (k : Newton_query.Ast.key) -> k.field) keys in
    match
      List.find_opt
        (fun f -> List.length (List.filter (Field.equal f) fields) > 1)
        fields
    with
    | Some f ->
        Error (Duplicate_key { branch = s.Ir.branch; prim = s.Ir.prim; field = f })
    | None ->
        let selected =
          List.map (fun (k : Newton_query.Ast.key) -> (k.field, k.mask)) keys
        in
        let params =
          ("desc", string_of_int (descriptor keys))
          :: List.map
               (fun f ->
                 let mask =
                   match List.assoc_opt f selected with
                   | Some m -> m land max32
                   | None -> 0
                 in
                 (Printf.sprintf "m_%s" (Emit.field_slug f),
                  Printf.sprintf "0x%x" mask))
               Field.all
        in
        Ok
          { table; matches = [ M_exact ("meta.class_id", class_id) ];
            action = table ^ "_select"; params; priority = 1 }

(* Pass region(s) of a comparison guard over [0, 2^32). *)
let pass_regions op value =
  let v = value land max32 in
  match (op : Newton_query.Ast.cmp_op) with
  | Newton_query.Ast.Eq -> [ (v, v) ]
  | Newton_query.Ast.Neq ->
      (if v > 0 then [ (0, v - 1) ] else [])
      @ if v < max32 then [ (v + 1, max32) ] else []
  | Newton_query.Ast.Gt -> if v < max32 then [ (v + 1, max32) ] else []
  | Newton_query.Ast.Ge -> [ (v, max32) ]
  | Newton_query.Ast.Lt -> if v > 0 then [ (0, v - 1) ] else []
  | Newton_query.Ast.Le -> [ (0, v) ]

(* Trigger-table entries realizing an R slot's guard / report flags. *)
let trigger_entries ~class_id (s : Ir.slot) guard report =
  let table = Emit.trigger_name ~stage:s.Ir.stage ~set:s.Ir.meta in
  let state_field = Emit.state_result ~set:s.Ir.meta in
  let ranges ?(state = (0, max32)) ?(g1 = (0, max32)) ?(g2 = (0, max32)) () =
    [ M_range (state_field, fst state, snd state);
      M_range ("meta.global_result", fst g1, snd g1);
      M_range ("meta.global_result2", fst g2, snd g2) ]
  in
  let class_match = [ M_exact ("meta.class_id", class_id) ] in
  let pass_action = if report then table ^ "_report" else "NoAction" in
  match guard with
  | None ->
      if report then
        [ { table; matches = class_match @ ranges (); action = table ^ "_report";
            params = []; priority = 10 } ]
      else []
  | Some (target, op, value) ->
      let region_match r =
        match (target : Ir.guard_target) with
        | Ir.On_state -> ranges ~state:r ()
        | Ir.On_g1 -> ranges ~g1:r ()
        | Ir.On_g2 -> ranges ~g2:r ()
      in
      List.map
        (fun r ->
          { table; matches = class_match @ region_match r; action = pass_action;
            params = []; priority = 20 })
        (pass_regions op value)
      @ [ { table; matches = class_match @ ranges (); action = table ^ "_stop";
            params = []; priority = 5 } ]

let slot_entries ~class_id ~bases (s : Ir.slot) =
  let table =
    Emit.table_name ~stage:s.Ir.stage ~kind:s.Ir.kind ~set:s.Ir.meta
  in
  let class_match = [ M_exact ("meta.class_id", class_id) ] in
  let simple action params =
    Ok [ { table; matches = class_match; action; params; priority = 1 } ]
  in
  let base_of key = List.assoc key bases in
  let own_base () = base_of (s.Ir.branch, s.Ir.prim, s.Ir.suite) in
  let src_params = function
    | Ir.Const k -> ("inc", string_of_int k)
    | Ir.Field_val f -> ("fidx", string_of_int (Field.index f))
  in
  let src_action suffix = function
    | Ir.Const _ -> table ^ "_" ^ suffix
    | Ir.Field_val _ -> table ^ "_" ^ suffix ^ "_fld"
  in
  match s.Ir.cfg with
  | Ir.K_cfg keys -> Result.map (fun e -> [ e ]) (k_entry ~class_id s keys)
  | Ir.H_cfg { mode = `Hash seed; range } ->
      simple (table ^ "_hash")
        [ ("seed", string_of_int seed); ("range", string_of_int range) ]
  | Ir.H_cfg { mode = `Direct; _ } -> simple (table ^ "_direct") []
  | Ir.S_cfg { op = Ir.S_cm src; _ } ->
      simple (src_action "add" src)
        [ ("base", string_of_int (own_base ())); src_params src ]
  | Ir.S_cfg { op = Ir.S_max src; _ } ->
      simple (src_action "max" src)
        [ ("base", string_of_int (own_base ())); src_params src ]
  | Ir.S_cfg { op = Ir.S_bf; _ } ->
      simple (table ^ "_bf") [ ("base", string_of_int (own_base ())) ]
  | Ir.S_cfg { op = Ir.S_pass; _ } -> simple (table ^ "_pass") []
  | Ir.S_cfg { op = Ir.S_read { ar_branch; ar_prim; ar_suite }; _ } -> (
      match List.assoc_opt (ar_branch, ar_prim, ar_suite) bases with
      | Some base -> simple (table ^ "_read") [ ("base", string_of_int base) ]
      | None ->
          Error
            (Missing_read_target
               { branch = s.Ir.branch; prim = s.Ir.prim;
                 target = (ar_branch, ar_prim, ar_suite) }))
  | Ir.R_cfg { merge; guard; report; combine } -> (
      let merge_action =
        match (merge, combine) with
        | None, None -> Ok None
        | Some (Ir.G1, op), None ->
            Ok
              (Some
                 (match op with
                 | Ir.M_set -> "set_g1" | Ir.M_min -> "min_g1"
                 | Ir.M_max -> "max_g1" | Ir.M_add -> "add_g1"
                 | Ir.M_sub -> "sub_g1"))
        | Some (Ir.G2, Ir.M_set), None -> Ok (Some "set_g2")
        | Some (Ir.G2, Ir.M_set), Some Ir.M_sub -> Ok (Some "set_g2_comb_sub")
        | Some (Ir.G2, Ir.M_set), Some Ir.M_min -> Ok (Some "set_g2_comb_min")
        | Some (Ir.G2, _), _ ->
            Error
              (Unsupported_r
                 { branch = s.Ir.branch; prim = s.Ir.prim;
                   reason =
                     "G2 merge other than `set` has no action in the static \
                      R menu" })
        | _, Some _ ->
            Error
              (Unsupported_r
                 { branch = s.Ir.branch; prim = s.Ir.prim;
                   reason =
                     "combine without a G2-set merge has no action in the \
                      static R menu" })
      in
      match merge_action with
      | Error e -> Error e
      | Ok merge_action ->
          let merge_entries =
            match merge_action with
            | None -> []
            | Some suffix ->
                [ { table; matches = class_match; action = table ^ "_" ^ suffix;
                    params = []; priority = 1 } ]
          in
          Ok (merge_entries @ trigger_entries ~class_id s guard report))

(* ---------------- classifier product ---------------- *)

(* A branch's classifier pattern as a per-field ternary vector. *)
let branch_pattern (e : Ir.init_entry) =
  List.map
    (fun f ->
      match
        List.find_opt (fun (f', _, _) -> Field.equal f f') e.Ir.ie_matches
      with
      | Some (_, v, m) -> (v, m)
      | None -> (0, 0))
    Ir.init_fields

let patterns_compatible p0 p1 =
  List.for_all2
    (fun (v0, m0) (v1, m1) -> (v0 lxor v1) land m0 land m1 = 0)
    p0 p1

let merge_patterns p0 p1 =
  List.map2
    (fun (v0, m0) (v1, m1) -> ((v0 land m0) lor (v1 land m1), m0 lor m1))
    p0 p1

(* All consistent non-empty subsets of the branch set, as (members,
   merged pattern), members ascending. *)
let consistent_subsets patterns =
  let n = Array.length patterns in
  let subsets = ref [] in
  for bits = 1 to (1 lsl n) - 1 do
    let members =
      List.filter (fun b -> bits land (1 lsl b) <> 0) (List.init n Fun.id)
    in
    let rec merge acc = function
      | [] -> Some acc
      | b :: rest ->
          if patterns_compatible acc patterns.(b) then
            merge (merge_patterns acc patterns.(b)) rest
          else None
    in
    match members with
    | first :: rest -> (
        match merge patterns.(first) rest with
        | Some merged -> subsets := (members, merged) :: !subsets
        | None -> ())
    | [] -> ()
  done;
  List.rev !subsets

(** Number of pipeline passes (1 + recirculations) the densest packet
    takes through this intent: the largest consistent branch subset. *)
let overlap_passes (compiled : Compose.t) =
  let active b = compiled.Compose.branches.(b) <> [] in
  let patterns =
    Array.of_list
      (List.filter_map
         (fun (e : Ir.init_entry) ->
           if active e.Ir.ie_branch then Some (branch_pattern e) else None)
         (Array.to_list compiled.Compose.init_entries))
  in
  List.fold_left
    (fun acc (members, _) -> max acc (List.length members))
    (min 1 (Array.length patterns))
    (consistent_subsets patterns)

(* init / resume / recirc entries for one intent.  [pending_bit b] is
   the global bit position of local branch b (b >= 1). *)
let classifier_entries ~class_id ~pending_bit (entries : Ir.init_entry list) =
  let patterns = Array.of_list (List.map branch_pattern entries) in
  let branch_ids = Array.of_list (List.map (fun e -> e.Ir.ie_branch) entries) in
  let init =
    List.map
      (fun (members, merged) ->
        let first = List.hd members in
        let rest = List.tl members in
        let pending =
          List.fold_left (fun acc b -> acc lor (1 lsl pending_bit b)) 0 rest
        in
        {
          table = "newton_init";
          matches =
            List.concat
              (List.map2
                 (fun f (v, m) ->
                   if m = 0 then []
                   else [ M_ternary (init_field_name f, v, m) ])
                 Ir.init_fields merged);
          action = "set_class";
          params =
            [ ("class_id", string_of_int (class_id + branch_ids.(first)));
              ("pending", string_of_int pending) ];
          priority = 100 + (10 * List.length members);
        })
      (consistent_subsets patterns)
  in
  let resume =
    List.filteri (fun i _ -> i > 0) (Array.to_list branch_ids)
    |> List.mapi (fun i b ->
           let bit = pending_bit (i + 1) in
           {
             table = "newton_resume";
             matches = [ M_ternary ("meta.pending", 1 lsl bit, 1 lsl bit) ];
             action = "resume_class";
             params =
               [ ("class_id", string_of_int (class_id + b));
                 ("clear_mask",
                  string_of_int (0xFFFF land lnot (1 lsl bit))) ];
             priority = 1000 - bit;
           })
  in
  (* Engine semantics: only literal branch 0's guard stop short-circuits
     the remaining branches; a stop on branch >= 1 leaves them running.
     The cancel entry therefore keys on branch 0's class alone — and only
     exists when branch 0 is active, else no stop ever propagates. *)
  let recirc =
    if Array.length branch_ids > 1 && Array.exists (fun b -> b = 0) branch_ids
    then
      [ { table = "newton_recirc";
          matches =
            [ M_exact ("meta.class_id", class_id);
              M_exact ("meta.query_active", 0) ];
          action = "cancel_pending"; params = []; priority = 1 } ]
    else []
  in
  (init, resume, recirc)

(* ---------------- whole-query translation ---------------- *)

let ( let* ) = Result.bind

(** All runtime entries configuring [compiled] under traffic class
    [class_id] (branch b gets [class_id + b]): classifier product
    entries, recirculation entries, and one or more entries per module
    slot.  State arrays are carved out of [alloc] (fresh per call when
    omitted — pass one allocator across calls to build a co-resident
    deployment).  Every inexpressible construct returns a typed
    {!issue}; this function never raises on compiler output. *)
let entries ?(class_id = 1) ?layout ?alloc (compiled : Compose.t) =
  let layout = Option.value layout ~default:Emit.default_layout in
  let alloc =
    match alloc with Some a -> a | None -> allocator layout
  in
  let branches =
    List.filter
      (fun (e : Ir.init_entry) -> compiled.Compose.branches.(e.Ir.ie_branch) <> [])
      (Array.to_list compiled.Compose.init_entries)
  in
  let nb = List.length branches in
  let* () =
    if nb > max_branches then
      Error (Too_many_branches { branches = nb; limit = max_branches })
    else if alloc.next_pending_bit + (nb - 1) > 16 then
      Error (Too_many_branches { branches = nb; limit = max_branches })
    else Ok ()
  in
  let pending_off = alloc.next_pending_bit in
  if nb > 1 then alloc.next_pending_bit <- pending_off + (nb - 1);
  let pending_bit b = pending_off + b - 1 in
  (* allocate every state array first (deterministic: branch order, then
     chain order) so S_read entries can reference sibling arrays *)
  let bases = ref [] in
  let needed = ref alloc.next_word in
  Array.iter
    (fun slots ->
      List.iter
        (fun (s : Ir.slot) ->
          match s.Ir.cfg with
          | Ir.S_cfg { op = Ir.S_bf | Ir.S_cm _ | Ir.S_max _; registers } ->
              bases := ((s.Ir.branch, s.Ir.prim, s.Ir.suite), !needed) :: !bases;
              needed := !needed + registers
          | _ -> ())
        slots)
    compiled.Compose.branches;
  let* () =
    if !needed > alloc.capacity then
      Error (Registers_exhausted { needed = !needed; capacity = alloc.capacity })
    else Ok ()
  in
  alloc.next_word <- !needed;
  let bases = !bases in
  let init, resume, recirc =
    classifier_entries ~class_id ~pending_bit branches
  in
  let* slot_rules =
    Array.fold_left
      (fun acc slots ->
        List.fold_left
          (fun acc (s : Ir.slot) ->
            let* acc = acc in
            let* es =
              slot_entries ~class_id:(class_id + s.Ir.branch) ~bases s
            in
            Ok (acc @ es))
          acc slots)
      (Ok []) compiled.Compose.branches
  in
  (* checked last, so every other issue of the query still surfaces:
     each slot's tables must exist in the layout's stages *)
  match
    List.find_opt
      (fun (s : Ir.slot) -> s.Ir.stage >= layout.Emit.stages)
      (List.concat (Array.to_list compiled.Compose.branches))
  with
  | Some s ->
      Error
        (Stage_overflow
           { branch = s.Ir.branch; prim = s.Ir.prim; stage = s.Ir.stage;
             stages = layout.Emit.stages })
  | None -> Ok (init @ resume @ recirc @ slot_rules)

(** [entries], raising [Invalid_argument] on a typed issue — for
    callers that already ran the analyzer gate. *)
let entries_exn ?class_id ?layout ?alloc compiled =
  match entries ?class_id ?layout ?alloc compiled with
  | Ok e -> e
  | Error issue -> invalid_arg ("Rules.entries: " ^ issue_to_string issue)

(* ---------------- JSON rendering ---------------- *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let match_to_json = function
  | M_exact (f, v) ->
      Printf.sprintf {|{"field":"%s","type":"exact","value":%d}|} (escape f) v
  | M_ternary (f, v, m) ->
      Printf.sprintf {|{"field":"%s","type":"ternary","value":%d,"mask":%d}|}
        (escape f) v m
  | M_range (f, lo, hi) ->
      Printf.sprintf {|{"field":"%s","type":"range","lo":%d,"hi":%d}|}
        (escape f) lo hi

let entry_to_json e =
  Printf.sprintf
    {|{"table":"%s","priority":%d,"match":[%s],"action":"%s","params":{%s}}|}
    (escape e.table) e.priority
    (String.concat "," (List.map match_to_json e.matches))
    (escape e.action)
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf {|"%s":"%s"|} (escape k) (escape v))
          e.params))

(** Render entries as a JSON array (one entry per line). *)
let to_json entries =
  "[\n" ^ String.concat ",\n" (List.map entry_to_json entries) ^ "\n]\n"
