(** Differential harness: replay the same trace through the simulator
    engine and the interpreted P4 pipeline and compare report
    multisets — the ground truth that emission + rule generation
    preserve engine semantics. *)

type outcome = {
  query_id : int;
  total : int;  (** packets offered *)
  replayed : int;  (** packets run on both targets *)
  skipped : int;  (** packets with no wire encoding *)
  skip_reasons : (string * int) list;  (** {!Phv.error} text -> count *)
  engine_reports : Newton_query.Report.t list;
  p4_reports : Newton_query.Report.t list;
}

(** Report multisets identical? *)
val matched : outcome -> bool

(** First report present on exactly one side (sorted order), if any. *)
val first_disagreement :
  outcome ->
  [ `Engine_only of Newton_query.Report.t
  | `P4_only of Newton_query.Report.t ]
  option

val report_to_string : Newton_query.Report.t -> string

(** One-line human summary (coverage, report counts, first divergence). *)
val describe : outcome -> string

(** Compile [query], install it on a fresh engine and a fresh
    interpreter instance, replay [packets] (timestamp order) through
    both, and collect reports.  The instance runs the program emitted
    for [layout], which is parsed and staged on the first call for that
    layout and reused afterwards (not domain-safe).  Packets with no wire encoding are skipped on both
    sides and counted.  [Error] when the query has no rule encoding. *)
val run_query :
  ?class_id:int ->
  ?layout:Newton_p4gen.Emit.layout ->
  Newton_query.Ast.t ->
  Newton_packet.Packet.t list ->
  (outcome, Newton_p4gen.Rules.issue) Stdlib.result
