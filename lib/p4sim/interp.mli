(** Interpreter for the emitted v1model subset: parses synthesized
    bytes into headers, runs the ingress apply block against
    runtime-installed table entries, models the register/hash/digest
    externs with the engine's exact semantics, and follows
    [recirculate_preserving_field_list] loops.

    A program is staged once ({!stage}): paths become slots of a flat
    integer PHV and the parser, actions and apply block become closures
    over it.  Instances ({!instantiate}) share the staged program and
    own only their PHV, register file and table entries. *)

exception Runtime_error of string
exception Install_error of string

(** Recirculation-pass cap per packet; exceeding it raises
    {!Runtime_error} (a rule-generation bug, not traffic-dependent). *)
val max_passes : int

(** A program staged for execution; immutable, shareable across
    instances. *)
type staged

(** One running pipeline: PHV, register file and installed entries. *)
type t

(** Stage a parsed program: resolves the ingress control (the one
    carrying tables), header layouts, declared widths, registers and
    the @field_list(1) preservation set, and compiles every statement.
    Errors that depend on execution (unknown calls, malformed extern
    arguments) are deferred to the packet that reaches them.
    @raise Runtime_error if the program has no control with tables. *)
val stage : P4ast.program -> staged

(** A fresh instance of a staged program: zeroed registers, no
    entries. *)
val instantiate : staged -> t

(** [instantiate (stage program)]. *)
val create : P4ast.program -> t

(** Install controller rules (the {!Newton_p4gen.Rules} wire entries).
    @raise Install_error on unknown tables/actions or malformed
    matches. *)
val install : t -> Newton_p4gen.Rules.entry list -> unit

(** Remove all installed entries (tables fall back to defaults). *)
val clear_entries : t -> unit

(** Zero the register file — the window-roll reset. *)
val clear_state : t -> unit

(** Total register words across the program's register declarations. *)
val register_words : t -> int

(** Run one packet through the pipeline (recirculations included);
    returns emitted digests in order, each the evaluated field tuple of
    the digest's struct.
    @raise Runtime_error on semantic drift (unknown calls, register
    out-of-bounds, non-converging recirculation). *)
val run : t -> ?ingress_port:int -> string -> int array list

(** Pipeline passes (1 + recirculations) the most recent {!run} packet
    took; 0 before any run.  The observable NA093's witness replay
    asserts against. *)
val last_passes : t -> int

