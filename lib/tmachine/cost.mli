(** Issue/port throughput model: counts retired operations by class and
    converts them to compute cycles via a roofline over the machine's ports. *)

type op =
  | Int_alu
  | Addr  (** address arithmetic foldable into x86 addressing modes *)
  | Fp_add
  | Fp_mul
  | Fp_div
  | Load
  | Store
  | Branch
  | Call
  | Indirect_call
  | Spill  (** register-pressure spill access (charged as load+store) *)
  | Other

type t

val create : Config.t -> t
val count : t -> op -> unit

(** Record a vector operation of the given width in bits; mixing widths
    accrues the configured transition penalty (the ATLAS SSE/AVX bug). *)
val vec_width_event : t -> int -> unit

(** One vector instruction of [lanes] lanes on [bits]-wide registers:
    [vec_mul t ~lanes ~bits] takes one FP-multiply issue slot, adds
    [lanes] flops and records [vec_width_event t bits]; [vec_add] and
    [vec_div] likewise on their ports.  [vec_other] (shuffles, splats,
    extracts) takes one generic slot and counts no flops. *)
val vec_add : t -> lanes:int -> bits:int -> unit

val vec_mul : t -> lanes:int -> bits:int -> unit
val vec_div : t -> lanes:int -> bits:int -> unit
val vec_other : t -> bits:int -> unit

val flops : t -> float
val add_flops : t -> float -> unit
val compute_cycles : t -> float
val uops : t -> float
val transition_penalty_cycles : t -> float
val reset : t -> unit
