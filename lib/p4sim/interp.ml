(** Interpreter for the emitted v1model subset, staged once per
    program.

    Executes a parsed {!P4ast.program} the way a v1model target would:
    parse the byte string into headers, run the ingress control's apply
    block (tables consult runtime-installed entries; register externs
    hit a word-addressed state file; [digest] collects report records),
    and loop on [recirculate_preserving_field_list] with user metadata
    cleared except the preserved field list.

    {!stage} does every name lookup once, ahead of any packet:
    - every dotted path becomes a slot of a flat [int array] PHV, with
      header validity in slots of its own and declared widths turned
      into assignment masks;
    - action parameters and locals become slots of a separate frame
      array, one disjoint range per action;
    - expressions, statements, action bodies, parser states and select
      transitions become OCaml closures over those arrays;
    - every table gets its key closures, its default action and the
      column its lookup index hashes on.
    An instance ({!instantiate}) is then only arrays: the PHV, the
    frame, the register file and the per-table entry indexes.  Per
    packet, the interpreter allocates only the digests it returns, the
    hash extern's fold state and, on first write, register pages.

    The extern semantics mirror the simulator's on purpose — the
    differential harness ({!Diff}) is only meaningful if
    [HashAlgorithm.crc32_custom] is the same seeded vector hash and
    [HashAlgorithm.identity] the same 30-bit packing fold the engine
    uses.  Both delegate to {!Newton_sketch.Hash} / the engine's
    direct-fold definition rather than re-implementing them. *)

open P4ast

exception Runtime_error of string
exception Install_error of string

let rt_fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt
let ins_fail fmt = Printf.ksprintf (fun m -> raise (Install_error m)) fmt

(** Passes a single packet may take through the pipeline; a pending
    bitmap that never drains past this is a rule-generation bug. *)
let max_passes = 32

let mask_of_width w = if w >= 62 then max_int else (1 lsl w) - 1
let m32 = 0xFFFFFFFF

module Int_tbl = Hashtbl.Make (Int)

(* A register file allocated a page at a time on first write: an
   instance pays only for the words its rules touch, untouched pages
   read as zero, and a window-roll reset zeroes only written pages.
   The differential makes a fresh instance per call; one plain array
   of the default 98,304 words per call left enough of them for the
   major GC to lift peak RSS ~10% above this paged file. *)
module Regfile = struct
  let page_bits = 8
  let page = 1 lsl page_bits
  let zero = Array.make page 0  (* shared by every untouched page; never written *)

  type t = { size : int; pages : int array array }

  let create size =
    { size; pages = Array.make ((size + page - 1) lsr page_bits) zero }

  let get r i = r.pages.(i lsr page_bits).(i land (page - 1))

  let set r i v =
    let p = r.pages.(i lsr page_bits) in
    let p =
      if p != zero then p
      else begin
        let p = Array.make page 0 in
        r.pages.(i lsr page_bits) <- p;
        p
      end
    in
    p.(i land (page - 1)) <- v

  let clear r = Array.iter (fun p -> if p != zero then Array.fill p 0 page 0) r.pages
end

(* ---------------- staged program and instance ---------------- *)

type emtch =
  | Exact_v of int
  | Tern_v of int * int  (* value, mask *)
  | Range_v of int * int  (* lo, hi inclusive *)

type t = {
  prog : staged;
  phv : int array;  (* header fields, metadata, std_meta, validity *)
  frame : int array;  (* action parameters and locals *)
  regs : Regfile.t array;
  tables : table_inst array;
  saved : int array;  (* preserved field list across a recirculation *)
  tuple : int array;  (* hash input scratch *)
  hkeys : int array array;  (* hash key vectors, one per key count *)
  sel : int array;  (* select key scratch *)
  mutable seq : int;
  mutable digests : int array list;  (* this packet's, reversed *)
  mutable recirc : bool;
  mutable last_passes : int;  (* pipeline passes of the last run packet *)
}

and entry = {
  im : emtch array;  (* aligned with the table's declared keys *)
  fire : t -> unit;  (* the bound action with its parameters *)
  prio : int;
  eseq : int;  (* install order; earlier wins a priority tie *)
}

(* Lookup index of one table, rebuilt after every install.
   Candidates are sorted by (priority desc, install order asc), so the
   first hit is the winner. *)
and table_inst = {
  st : stable;
  keys : int array;  (* this lookup's key values *)
  mutable installed : entry list;  (* reverse install order *)
  by_key : entry array Int_tbl.t;  (* on the index column's exact value *)
  mutable scan : entry array;  (* tables without an exact key *)
}

and stable = {
  st_keys : (t -> int) array;
  st_key_fields : (string, string) result array;  (* rule field, or why not *)
  st_kinds : match_kind array;
  st_actions : string list;
  st_default : t -> unit;
  st_index : int;  (* first exact key column, -1 when none *)
}

and staged = {
  s_phv : int;
  s_frame : int;
  s_regs : int array;  (* words per register, by register id *)
  s_tables : stable array;
  s_table_ids : (string, int) Hashtbl.t;
  s_actions : (string, caction) Hashtbl.t;
  s_port : int;  (* std_meta.ingress_port slot *)
  s_instance_type : int;
  s_preserved : int array;
  s_tuple : int;
  s_sel : int;
  s_parse : t -> string -> unit;
  s_apply : t -> unit;
}

and caction = {
  ca_params : (string * int) list;
  ca_slots : int array;  (* frame slot per parameter *)
  ca_body : t -> unit;
}

(* ---------------- table lookup ---------------- *)

let rec hits keys im i =
  i = Array.length im
  || (match im.(i) with
     | Exact_v v -> keys.(i) = v
     | Tern_v (v, m) -> keys.(i) land m = v
     | Range_v (lo, hi) ->
         let k = keys.(i) in
         k >= lo && k <= hi)
     && hits keys im (i + 1)

(* Index of the first candidate every key hits, -1 on a miss. *)
let rec first_hit keys (cands : entry array) i =
  if i = Array.length cands then -1
  else if hits keys cands.(i).im 0 then i
  else first_hit keys cands (i + 1)

let reindex ti =
  let sorted =
    List.sort
      (fun a b ->
        if a.prio <> b.prio then compare b.prio a.prio
        else compare a.eseq b.eseq)
      ti.installed
  in
  Int_tbl.reset ti.by_key;
  let col = ti.st.st_index in
  if col < 0 then ti.scan <- Array.of_list sorted
  else begin
    let buckets = Int_tbl.create 16 in
    List.iter
      (fun e ->
        match e.im.(col) with
        | Exact_v v ->
            let prev = Option.value (Int_tbl.find_opt buckets v) ~default:[] in
            Int_tbl.replace buckets v (e :: prev)
        | Tern_v _ | Range_v _ -> assert false (* exact columns align exact *))
      sorted;
    Int_tbl.iter
      (fun v es -> Int_tbl.replace ti.by_key v (Array.of_list (List.rev es)))
      buckets
  end

let apply_table c ti =
  let st = ti.st in
  match ti.installed with
  | [] -> st.st_default c
  | _ :: _ ->
      let keys = ti.keys in
      for i = 0 to Array.length keys - 1 do
        keys.(i) <- st.st_keys.(i) c
      done;
      let cands =
        if st.st_index < 0 then ti.scan
        else
          match Int_tbl.find ti.by_key keys.(st.st_index) with
          | cands -> cands
          | exception Not_found -> [||]
      in
      let i = first_hit keys cands 0 in
      if i < 0 then st.st_default c else cands.(i).fire c

(* ---------------- staging ---------------- *)

(* Compile-time state: slot allocation and name tables. *)
type ctx = {
  widths : (string, int) Hashtbl.t;  (* dotted path -> declared bit width *)
  slots : (string, int) Hashtbl.t;  (* dotted path -> PHV slot *)
  vslots : (string, int) Hashtbl.t;  (* header instance -> validity slot *)
  mutable nphv : int;
  mutable nframe : int;
  mutable max_tuple : int;
  mutable max_sel : int;
  reg_ids : (string, int) Hashtbl.t;
  table_ids : (string, int) Hashtbl.t;
  hdr_insts : (string, string) Hashtbl.t;  (* instance -> header type *)
  hdr_types : (string, header_type) Hashtbl.t;
}

let phv_slot cx key =
  match Hashtbl.find_opt cx.slots key with
  | Some s -> s
  | None ->
      let s = cx.nphv in
      cx.nphv <- s + 1;
      Hashtbl.replace cx.slots key s;
      s

let valid_slot cx inst =
  match Hashtbl.find_opt cx.vslots inst with
  | Some s -> s
  | None ->
      let s = cx.nphv in
      cx.nphv <- s + 1;
      Hashtbl.replace cx.vslots inst s;
      s

let frame_slot cx =
  let s = cx.nframe in
  cx.nframe <- s + 1;
  s

(* A name scope: locals and action parameters -> (frame slot, width). *)
type scope = (string, int * int) Hashtbl.t

type place = Local of int * int | Global of int * int  (* slot, mask *)

let resolve cx (sc : scope) path =
  match path with
  | [ name ] when Hashtbl.mem sc name ->
      let s, w = Hashtbl.find sc name in
      Local (s, mask_of_width w)
  | _ ->
      let key = path_to_string path in
      let w = Option.value (Hashtbl.find_opt cx.widths key) ~default:62 in
      Global (phv_slot cx key, mask_of_width w)

let setter cx sc path (f : t -> int) : t -> unit =
  match resolve cx sc path with
  | Local (s, m) -> fun c -> c.frame.(s) <- f c land m
  | Global (s, m) -> fun c -> c.phv.(s) <- f c land m

(* Store the value [v] computed inside an extern at [path]. *)
let store cx sc path : t -> int -> unit =
  match resolve cx sc path with
  | Local (s, m) -> fun c v -> c.frame.(s) <- v land m
  | Global (s, m) -> fun c v -> c.phv.(s) <- v land m

let bool_int b = if b then 1 else 0

let rec cexpr cx sc e : t -> int =
  match e with
  | Int v -> fun _ -> v
  | Ref path -> (
      match resolve cx sc path with
      | Local (s, _) -> fun c -> c.frame.(s)
      | Global (s, _) -> fun c -> c.phv.(s))
  | Cast (w, e) ->
      let f = cexpr cx sc e and m = mask_of_width w in
      fun c -> f c land m
  | Is_valid (_ :: inst :: _) ->
      let s = valid_slot cx inst in
      fun c -> c.phv.(s)
  | Is_valid _ -> fun _ -> 0
  | Cond (k, a, b) ->
      let k = ccond cx sc k and a = cexpr cx sc a and b = cexpr cx sc b in
      fun c -> if k c then a c else b c
  | Tuple _ -> fun _ -> rt_fail "tuple outside an extern argument position"
  | Binop ((Eq | Ne | Lt | Gt | Le | Ge | Land | Lor), _, _) ->
      let k = ccond cx sc e in
      fun c -> bool_int (k c)
  | Binop (op, a, b) -> (
      (* all emitted arithmetic is bit<32>: wrap there *)
      let x = cexpr cx sc a and y = cexpr cx sc b in
      match op with
      | Add -> fun c -> (x c + y c) land m32
      | Sub -> fun c -> (x c - y c) land m32
      | Shl -> fun c -> (x c lsl y c) land m32
      | Shr -> fun c -> x c lsr y c
      | Band -> fun c -> x c land y c
      | Bor -> fun c -> x c lor y c
      | Bxor -> fun c -> x c lxor y c
      | Eq | Ne | Lt | Gt | Le | Ge | Land | Lor -> assert false)

(* An expression in condition position, compiled straight to a bool. *)
and ccond cx sc e : t -> bool =
  match e with
  | Binop (Land, a, b) ->
      let a = ccond cx sc a and b = ccond cx sc b in
      fun c -> a c && b c
  | Binop (Lor, a, b) ->
      let a = ccond cx sc a and b = ccond cx sc b in
      fun c -> a c || b c
  | Binop (Eq, a, Int y) ->
      (* the [meta.query_active == 1] guard in front of every module
         table: one closure call instead of three *)
      let x = cexpr cx sc a in
      fun c -> x c = y
  | Binop (Ne, a, Int y) ->
      let x = cexpr cx sc a in
      fun c -> x c <> y
  | Binop (((Eq | Ne | Lt | Gt | Le | Ge) as op), a, b) -> (
      let x = cexpr cx sc a and y = cexpr cx sc b in
      match op with
      | Eq -> fun c -> x c = y c
      | Ne -> fun c -> x c <> y c
      | Lt -> fun c -> x c < y c
      | Gt -> fun c -> x c > y c
      | Le -> fun c -> x c <= y c
      | _ -> fun c -> x c >= y c)
  | Is_valid (_ :: inst :: _) ->
      let s = valid_slot cx inst in
      fun c -> c.phv.(s) <> 0
  | e ->
      let f = cexpr cx sc e in
      fun c -> f c <> 0

let seq_all (fs : (t -> unit) list) : t -> unit =
  match fs with
  | [ f ] -> f
  | fs ->
      let fs = Array.of_list fs in
      fun c ->
        for i = 0 to Array.length fs - 1 do
          fs.(i) c
        done

(* ---- hash externs ---- *)

(* The engine's direct (packing) mode, bit for bit. *)
let direct_value keys =
  match Array.length keys with
  | 0 -> 0
  | 1 -> keys.(0)
  | _ ->
      Array.fold_left
        (fun acc v -> ((acc lsl 16) lxor v) land 0x3FFFFFFF)
        0 keys

(* Decode the key-descriptor convention into the instance's key vector
   of the right length: 12 x 5-bit codes, code 0 terminates, code c
   selects tuple element c (= field index c-1's key copy, which rides
   at tuple position 1 + (c-1)). *)
let described_keys c n =
  let tuple = c.tuple in
  let desc = tuple.(0) in
  let k = ref 0 in
  while
    !k < Newton_p4gen.Emit.desc_positions && (desc lsr (5 * !k)) land 0x1F <> 0
  do
    let code = (desc lsr (5 * !k)) land 0x1F in
    if code >= n then rt_fail "hash descriptor code %d outside tuple" code;
    incr k
  done;
  let k = !k in
  let keys = c.hkeys.(k) in
  for pos = 0 to k - 1 do
    keys.(pos) <- tuple.((desc lsr (5 * pos)) land 0x1F)
  done;
  keys

let chash cx sc args : t -> unit =
  match args with
  | [ Ref dst; Ref algo; seed_e; Tuple input; range_e ] ->
      let set = store cx sc dst in
      let inputs = Array.of_list (List.map (cexpr cx sc) input) in
      let n = Array.length inputs in
      cx.max_tuple <- max cx.max_tuple n;
      let value : t -> int array -> int =
        match List.rev algo with
        | "crc32_custom" :: _ ->
            let seed = cexpr cx sc seed_e and range = cexpr cx sc range_e in
            fun c keys ->
              let seed = seed c in
              let range = range c in
              let h = Newton_sketch.Hash.hash_vector ~seed keys in
              if range > 0 then h mod range else h
        | "identity" :: _ -> fun _ keys -> direct_value keys
        | a :: _ -> fun _ _ -> rt_fail "unknown hash algorithm %s" a
        | [] -> fun _ _ -> rt_fail "hash call without an algorithm"
      in
      if n = 0 then fun _ -> rt_fail "empty hash input tuple"
      else
        fun c ->
          let tuple = c.tuple in
          for i = 0 to n - 1 do
            tuple.(i) <- inputs.(i) c
          done;
          set c (value c (described_keys c n))
  | _ -> fun _ -> rt_fail "malformed hash() call"

(* ---- statements ---- *)

let rec cstmt cx sc stmt : t -> unit =
  match stmt with
  | Decl { width; name; init } ->
      let s = frame_slot cx in
      let init = Option.map (cexpr cx sc) init in
      Hashtbl.replace sc name (s, width);
      let m = mask_of_width width in
      (match init with
      | Some f -> fun c -> c.frame.(s) <- f c land m
      | None -> fun c -> c.frame.(s) <- 0)
  | Assign (path, e) -> setter cx sc path (cexpr cx sc e)
  | If (k, then_, else_) -> (
      let k = ccond cx sc k in
      let a = cblock cx sc then_ in
      match else_ with
      | [] -> fun c -> if k c then a c
      | _ ->
          let b = cblock cx sc else_ in
          fun c -> if k c then a c else b c)
  | Call { path; generic; args } -> ccall cx sc path generic args

(* in order: a [Decl] scopes over the statements after it *)
and cblock cx sc stmts =
  seq_all (List.rev (List.fold_left (fun acc s -> cstmt cx sc s :: acc) [] stmts))

and ccall cx sc path generic args : t -> unit =
  match path, generic with
  | [ "hash" ], _ -> chash cx sc args
  | [ "digest" ], Some _ -> (
      match args with
      | [ _receiver; Tuple fields ] ->
          let fs = Array.of_list (List.map (cexpr cx sc) fields) in
          fun c -> c.digests <- Array.map (fun f -> f c) fs :: c.digests
      | _ -> fun _ -> rt_fail "malformed digest() call")
  | [ "recirculate_preserving_field_list" ], _ -> fun c -> c.recirc <- true
  | [ "NoAction" ], _ | [ "mark_to_drop" ], _ -> fun _ -> ()
  | [ reg; "read" ], _ when Hashtbl.mem cx.reg_ids reg -> (
      let r = Hashtbl.find cx.reg_ids reg in
      match args with
      | [ Ref dst; idx_e ] ->
          let set = store cx sc dst and idx = cexpr cx sc idx_e in
          fun c ->
            let rf = c.regs.(r) in
            let i = idx c in
            if i < 0 || i >= rf.Regfile.size then
              rt_fail "%s.read: index %d outside %d words" reg i rf.Regfile.size;
            set c (Regfile.get rf i)
      | _ -> fun _ -> rt_fail "malformed %s.read call" reg)
  | [ reg; "write" ], _ when Hashtbl.mem cx.reg_ids reg -> (
      let r = Hashtbl.find cx.reg_ids reg in
      match args with
      | [ idx_e; val_e ] ->
          let idx = cexpr cx sc idx_e and v = cexpr cx sc val_e in
          fun c ->
            let rf = c.regs.(r) in
            let i = idx c in
            if i < 0 || i >= rf.Regfile.size then
              rt_fail "%s.write: index %d outside %d words" reg i rf.Regfile.size;
            Regfile.set rf i (v c land m32)
      | _ -> fun _ -> rt_fail "malformed %s.write call" reg)
  | [ tname; "apply" ], _ when Hashtbl.mem cx.table_ids tname ->
      let ti = Hashtbl.find cx.table_ids tname in
      fun c -> apply_table c c.tables.(ti)
  | _ :: rest, _ when List.mem "setValid" rest || List.mem "setInvalid" rest
    -> (
      match path with
      | _ :: inst :: _ ->
          let s = valid_slot cx inst in
          let v = bool_int (List.mem "setValid" rest) in
          fun c -> c.phv.(s) <- v
      | _ -> fun _ -> ())
  | _ ->
      let name = path_to_string path in
      fun _ -> rt_fail "unknown call %s" name

(* ---- actions ---- *)

(* An action's parameters and locals take a frame range of their own. *)
let stage_action cx a =
  let sc = Hashtbl.create 8 in
  let slots =
    List.map
      (fun (pname, w) ->
        let s = frame_slot cx in
        Hashtbl.replace sc pname (s, w);
        s)
      a.a_params
  in
  { ca_params = a.a_params; ca_slots = Array.of_list slots;
    ca_body = cblock cx sc a.a_body }

(* The closure running [ca] with already-masked [args] (aligned with
   its parameters). *)
let bind ca args : t -> unit =
  let slots = ca.ca_slots and body = ca.ca_body in
  match Array.length slots with
  | 0 -> body
  | n ->
      fun c ->
        let frame = c.frame in
        for i = 0 to n - 1 do
          frame.(slots.(i)) <- args.(i)
        done;
        body c

(* Resolve action [name] with named integer [params]; a missing
   parameter or undeclared action fails when the action runs. *)
let fire_of actions name params : t -> unit =
  if name = "NoAction" then fun _ -> ()
  else
    match Hashtbl.find_opt actions name with
    | None -> fun _ -> rt_fail "unknown action %s" name
    | Some ca -> (
        let missing =
          List.find_opt (fun (p, _) -> not (List.mem_assoc p params)) ca.ca_params
        in
        match missing with
        | Some (p, _) -> fun _ -> rt_fail "action %s: missing parameter %s" name p
        | None ->
            bind ca
              (Array.of_list
                 (List.map
                    (fun (p, w) -> List.assoc p params land mask_of_width w)
                    ca.ca_params)))

let stage_table cx actions (tbl : table) =
  let kinds = Array.of_list (List.map snd tbl.t_keys) in
  let st_index =
    let rec go i =
      if i >= Array.length kinds then -1
      else if kinds.(i) = Exact then i
      else go (i + 1)
    in
    go 0
  in
  {
    st_keys =
      Array.of_list (List.map (fun (e, _) -> cexpr cx (Hashtbl.create 1) e) tbl.t_keys);
    st_key_fields =
      Array.of_list
        (List.map
           (fun (e, _) ->
             match e with
             | Ref path -> Ok (path_to_string path)
             | Int v -> Error (string_of_int v)
             | _ -> Error "<expr>")
           tbl.t_keys);
    st_kinds = kinds;
    st_actions = tbl.t_actions;
    st_default = fire_of actions tbl.t_default [];
    st_index;
  }

(* ---- parser ---- *)

(* [w] bits at bit offset [pos], MSB first, read a byte window at a
   time; widths above 48 split so the window stays inside an int. *)
let rec read_field bytes pos w =
  if w > 48 then
    let hi = read_field bytes pos (w - 32) in
    (hi lsl 32) lor read_field bytes (pos + w - 32) 32
  else begin
    let first = pos lsr 3 and last = (pos + w - 1) lsr 3 in
    let acc = ref 0 in
    for b = first to last do
      acc := (!acc lsl 8) lor Char.code (String.get bytes b)
    done;
    (!acc lsr (((last + 1) lsl 3) - (pos + w))) land ((1 lsl w) - 1)
  end

(* One [extract]: fills the header's field slots and validity; returns
   the bit position after it, or -1 when the packet is too short (the
   header stays invalid and parsing stops). *)
let cextract cx path : t -> string -> int -> int =
  match path with
  | [ _; inst ] -> (
      match
        Option.bind
          (Hashtbl.find_opt cx.hdr_insts inst)
          (Hashtbl.find_opt cx.hdr_types)
      with
      | None -> fun _ _ _ -> rt_fail "extract of unknown header %s" inst
      | Some ht ->
          let total = List.fold_left (fun a (_, w) -> a + w) 0 ht.h_fields in
          let slots =
            Array.of_list
              (List.map
                 (fun (fname, _) -> phv_slot cx ("hdr." ^ inst ^ "." ^ fname))
                 ht.h_fields)
          in
          let widths = Array.of_list (List.map snd ht.h_fields) in
          let v = valid_slot cx inst in
          fun c bytes pos ->
            if pos + total > 8 * String.length bytes then -1
            else begin
              let phv = c.phv in
              let p = ref pos in
              for i = 0 to Array.length slots - 1 do
                let w = widths.(i) in
                phv.(slots.(i)) <- read_field bytes !p w;
                p := !p + w
              done;
              phv.(v) <- 1;
              !p
            end)
  | p ->
      let name = path_to_string p in
      fun _ _ _ -> rt_fail "unsupported extract target %s" name

type pcell = { mutable step : t -> string -> int -> unit }

let rec pats_match sel pats i =
  i = Array.length pats
  || (match pats.(i) with P_any -> true | P_int v -> v = sel.(i))
     && pats_match sel pats (i + 1)

let stage_parser cx states : t -> string -> unit =
  let cells = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name _ -> Hashtbl.replace cells name { step = (fun _ _ _ -> ()) })
    states;
  let goto name =
    match Hashtbl.find_opt cells name with
    | None -> fun _ _ _ -> ()  (* accept *)
    | Some cell -> fun c bytes pos -> cell.step c bytes pos
  in
  Hashtbl.iter
    (fun name st ->
      let extracts = Array.of_list (List.map (cextract cx) st.ps_extracts) in
      let next : t -> string -> int -> unit =
        match st.ps_transition with
        | T_accept -> fun _ _ _ -> ()
        | T_direct target -> goto target
        | T_select (keys, cases) ->
            let sc = Hashtbl.create 1 in
            let keys = Array.of_list (List.map (cexpr cx sc) keys) in
            let nk = Array.length keys in
            cx.max_sel <- max cx.max_sel nk;
            let cases =
              Array.of_list
                (List.map
                   (fun (pats, target) ->
                     ( Array.of_list pats,
                       if target = "accept" then fun _ _ _ -> () else goto target ))
                   cases)
            in
            fun c bytes pos ->
              let sel = c.sel in
              for i = 0 to nk - 1 do
                sel.(i) <- keys.(i) c
              done;
              let i = ref 0 in
              while !i < Array.length cases && not (pats_match sel (fst cases.(!i)) 0) do
                incr i
              done;
              if !i < Array.length cases then (snd cases.(!i)) c bytes pos
      in
      (Hashtbl.find cells name).step <-
        (fun c bytes pos ->
          let pos = ref pos and i = ref 0 in
          while !pos >= 0 && !i < Array.length extracts do
            pos := extracts.(!i) c bytes !pos;
            incr i
          done;
          if !pos >= 0 then next c bytes !pos))
    states;
  let start = goto "start" in
  fun c bytes -> start c bytes 0

(* ---- the whole program ---- *)

let stage prog =
  let ingress =
    match List.find_opt (fun c -> c.c_tables <> []) prog.controls with
    | Some c -> c
    | None -> rt_fail "program has no control with tables"
  in
  let cx =
    {
      widths = Hashtbl.create 256;
      slots = Hashtbl.create 256;
      vslots = Hashtbl.create 32;
      nphv = 0;
      nframe = 0;
      max_tuple = 0;
      max_sel = 0;
      reg_ids = Hashtbl.create 4;
      table_ids = Hashtbl.create 256;
      hdr_insts = Hashtbl.create 32;
      hdr_types = Hashtbl.create 32;
    }
  in
  List.iter (fun h -> Hashtbl.replace cx.hdr_types h.h_name h) prog.header_types;
  let preserved = ref [] in
  List.iter
    (fun s ->
      (* emission convention: [headers_t] is bound as [hdr], the
         metadata struct as [meta] *)
      let prefix = if s.s_name = "headers_t" then "hdr" else "meta" in
      List.iter
        (fun f ->
          match f.sf_type with
          | `Bit w ->
              let path = prefix ^ "." ^ f.sf_name in
              Hashtbl.replace cx.widths path w;
              if List.mem 1 f.sf_field_lists then preserved := path :: !preserved
          | `Named ty -> (
              Hashtbl.replace cx.hdr_insts f.sf_name ty;
              match Hashtbl.find_opt cx.hdr_types ty with
              | Some h ->
                  List.iter
                    (fun (fname, w) ->
                      Hashtbl.replace cx.widths
                        (prefix ^ "." ^ f.sf_name ^ "." ^ fname)
                        w)
                    h.h_fields
              | None -> ()))
        s.s_fields)
    prog.structs;
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem cx.reg_ids name) then
        Hashtbl.replace cx.reg_ids name (Hashtbl.length cx.reg_ids))
    ingress.c_registers;
  let s_regs = Array.make (Hashtbl.length cx.reg_ids) 0 in
  List.iter
    (fun (name, n) -> s_regs.(Hashtbl.find cx.reg_ids name) <- n)
    ingress.c_registers;
  (* a later declaration of the same table name replaces the earlier *)
  let table_src = Hashtbl.create 256 in
  List.iter
    (fun tbl ->
      if not (Hashtbl.mem cx.table_ids tbl.t_name) then
        Hashtbl.replace cx.table_ids tbl.t_name (Hashtbl.length cx.table_ids);
      Hashtbl.replace table_src tbl.t_name tbl)
    ingress.c_tables;
  (* a later declaration of the same action name replaces the earlier *)
  let actions = Hashtbl.create 1024 in
  List.iter
    (fun a -> Hashtbl.replace actions a.a_name (stage_action cx a))
    ingress.c_actions;
  let names = Array.make (Hashtbl.length cx.table_ids) "" in
  Hashtbl.iter (fun name id -> names.(id) <- name) cx.table_ids;
  let s_tables =
    Array.map (fun name -> stage_table cx actions (Hashtbl.find table_src name)) names
  in
  let states = Hashtbl.create 32 in
  List.iter (fun st -> Hashtbl.replace states st.ps_name st) prog.parser_states;
  let s_parse = stage_parser cx states in
  let s_apply = cblock cx (Hashtbl.create 8) ingress.c_apply in
  let s_port = phv_slot cx "std_meta.ingress_port" in
  let s_instance_type = phv_slot cx "std_meta.instance_type" in
  let s_preserved =
    Array.of_list (List.map (phv_slot cx) (List.rev !preserved))
  in
  {
    s_phv = cx.nphv;
    s_frame = cx.nframe;
    s_regs;
    s_tables;
    s_table_ids = cx.table_ids;
    s_actions = actions;
    s_port;
    s_instance_type;
    s_preserved;
    s_tuple = cx.max_tuple;
    s_sel = cx.max_sel;
    s_parse;
    s_apply;
  }

let instantiate p =
  {
    prog = p;
    phv = Array.make p.s_phv 0;
    frame = Array.make p.s_frame 0;
    regs = Array.map Regfile.create p.s_regs;
    tables =
      Array.map
        (fun st ->
          {
            st;
            keys = Array.make (Array.length st.st_keys) 0;
            installed = [];
            by_key = Int_tbl.create 8;
            scan = [||];
          })
        p.s_tables;
    saved = Array.make (Array.length p.s_preserved) 0;
    tuple = Array.make p.s_tuple 0;
    hkeys =
      Array.init (Newton_p4gen.Emit.desc_positions + 1) (fun k -> Array.make k 0);
    sel = Array.make p.s_sel 0;
    seq = 0;
    digests = [];
    recirc = false;
    last_passes = 0;
  }

let create prog = instantiate (stage prog)

(* ---------------- rule installation ---------------- *)

let param_int table (name, s) =
  match int_of_string_opt s with
  | Some v -> (name, v)
  | None -> ins_fail "table %s: parameter %s=%S is not an integer" table name s

let align_match table key kind (matches : Newton_p4gen.Rules.mtch list) =
  let found =
    List.find_opt
      (function
        | Newton_p4gen.Rules.M_exact (f, _)
        | M_ternary (f, _, _)
        | M_range (f, _, _) -> f = key)
      matches
  in
  match kind, found with
  | Exact, Some (M_exact (_, v)) -> Exact_v v
  | Exact, Some _ -> ins_fail "table %s: key %s needs an exact match" table key
  | Exact, None -> ins_fail "table %s: no match given for exact key %s" table key
  | Ternary, Some (M_ternary (_, v, m)) -> Tern_v (v, m)
  | Ternary, Some (M_exact (_, v)) -> Tern_v (v, m32)
  | Ternary, Some _ -> ins_fail "table %s: key %s needs a ternary match" table key
  | Ternary, None -> Tern_v (0, 0)  (* unconstrained *)
  | Range, Some (M_range (_, lo, hi)) -> Range_v (lo, hi)
  | Range, Some (M_exact (_, v)) -> Range_v (v, v)
  | Range, Some _ -> ins_fail "table %s: key %s needs a range match" table key
  | Range, None -> Range_v (0, max_int)  (* unconstrained *)

let install t (rules : Newton_p4gen.Rules.entry list) =
  let touched = ref [] in
  (* the entries before a refused one stay installed and indexed *)
  Fun.protect ~finally:(fun () -> List.iter reindex !touched) @@ fun () ->
  List.iter
    (fun (e : Newton_p4gen.Rules.entry) ->
      match Hashtbl.find_opt t.prog.s_table_ids e.table with
      | None -> ins_fail "no such table: %s" e.table
      | Some id ->
          let ti = t.tables.(id) in
          let st = ti.st in
          if not (List.mem e.action st.st_actions) then
            ins_fail "table %s has no action %s" e.table e.action;
          let im =
            Array.mapi
              (fun i kind ->
                match st.st_key_fields.(i) with
                | Ok key -> align_match e.table key kind e.matches
                | Error what ->
                    ins_fail "table key is not a field reference (%s)" what)
              st.st_kinds
          in
          let params = List.map (param_int e.table) e.params in
          let entry =
            {
              im;
              fire = fire_of t.prog.s_actions e.action params;
              prio = e.priority;
              eseq = t.seq;
            }
          in
          t.seq <- t.seq + 1;
          if not (List.memq ti !touched) then touched := ti :: !touched;
          ti.installed <- entry :: ti.installed)
    rules

let clear_entries t =
  Array.iter
    (fun ti ->
      ti.installed <- [];
      reindex ti)
    t.tables;
  t.seq <- 0

let clear_state t =
  Array.iter Regfile.clear t.regs

let register_words t =
  Array.fold_left (fun acc rf -> acc + rf.Regfile.size) 0 t.regs

(* ---------------- packet execution ---------------- *)

(** Run one packet (as synthesized bytes) through the pipeline,
    following recirculations; returns the digest records emitted, in
    order.  Every pass starts from a zeroed PHV: headers invalid,
    metadata cleared, except the preserved field list on a
    recirculated pass. *)
let run t ?(ingress_port = 0) bytes =
  let p = t.prog in
  let phv = t.phv in
  t.digests <- [];
  let passes = ref 0 in
  let continue = ref true in
  while !continue do
    if !passes >= max_passes then
      rt_fail "recirculation did not converge after %d passes" max_passes;
    Array.fill phv 0 (Array.length phv) 0;
    phv.(p.s_port) <- ingress_port;
    (* v1model: 0 = normal, 4 = recirculated instance *)
    if !passes > 0 then begin
      phv.(p.s_instance_type) <- 4;
      for i = 0 to Array.length p.s_preserved - 1 do
        phv.(p.s_preserved.(i)) <- t.saved.(i)
      done
    end;
    t.recirc <- false;
    p.s_parse t bytes;
    p.s_apply t;
    if t.recirc then
      for i = 0 to Array.length p.s_preserved - 1 do
        t.saved.(i) <- phv.(p.s_preserved.(i))
      done
    else continue := false;
    incr passes
  done;
  t.last_passes <- !passes;
  List.rev t.digests

(** Pipeline passes (1 + recirculations) the most recent {!run} packet
    took; 0 before any run. *)
let last_passes t = t.last_passes
