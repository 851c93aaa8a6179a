(** P4 emission feasibility (NA080, NA081, NA083, NA084):
    key-descriptor/branch-bitmap capacity, static-action-menu coverage,
    same-cell ordering hazards, register-file fit, stage fit.  Recirculation
    overlap is {!Pass_space}'s NA093. *)

include Pass.S
