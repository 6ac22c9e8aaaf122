(** Deterministic fault injection for the VM: fail the Nth allocation,
    trap at the Nth retired instruction, or poison a heap byte at a
    given step.  Each spec fires at most once; an injected failure
    surfaces as a catchable [fault.*] diagnostic. *)

type spec =
  | Fail_alloc of int  (** fail the Nth program heap allocation (1-based) *)
  | Trap_at_step of int  (** raise at the Nth retired VM instruction *)
  | Poison_byte of { step : int; addr : int }
      (** at step N, poison one heap byte (unaddressable when checked,
          silently corrupted when not) *)
  | Stray_store of { step : int; addr : int }
      (** at step N, flip one arena byte without journaling it — a
          rollback-journal bug; for tests only, no CLI flag or protocol
          field arms it *)

exception Injected of spec * string

val code : spec -> string
val describe : spec -> string

type t

val create : spec list -> t
val add : t -> spec -> unit

(** Smallest step ordinal any pending step-based spec fires at. *)
val next_step : t -> int

val pending : t -> spec list

(** Heap allocations observed so far (ordinal base for relative
    [Fail_alloc] injection into a live session). *)
val allocs : t -> int

(** Note one program heap allocation; raises {!Injected} if armed. *)
val on_alloc : t -> unit

(** Fire all step-based specs due at [step]. *)
val fire_step : t -> Mem.t -> int -> unit

(** Marshalable image (pending plan, allocations observed) for the
    checkpoint layer. *)
val snapshot : t -> spec list * int

val of_snapshot : spec list * int -> t
