(** Byte-addressed linear memory for compiled Terra code.

    Address 0 is the null page and always faults; a static-data region is
    bump-allocated from [statics_base], and an access to its unallocated
    part (at or above {!statics_mark}) faults too; the heap and stack
    share the rest (heap grows up, stack grows down from [stack_top]).

    The arena is a private mapping of [/dev/zero] ({!Pagedigest}): it
    reads zero until written, and costs the pages written, not its
    size. *)

exception Fault of int * string

type t

(** An open transaction: page-granular copy-on-write pre-images of every
    mutated page, begun with {!begin_txn} and finished with exactly one
    of {!rollback} or {!commit}. *)
type txn

(** An arena of [bytes] (default 192 MiB, and at least the statics, the
    stack and 1 MiB of heap). *)
val create : ?bytes:int -> unit -> t
val size : t -> int

(** Start journaling writes. Raises [Invalid_argument] if a transaction
    is already active (transactions do not nest). *)
val begin_txn : t -> txn

val in_txn : t -> bool

(** Restore every journaled page to its pre-transaction image.  Statics
    bump-allocated during the transaction are kept (compile-time
    artifacts — interned strings, vtables — are monotone, like compiled
    code); everything else, including pre-existing statics such as Terra
    globals, is restored byte-for-byte. *)
val rollback : t -> txn -> unit

(** Discard the journal, keeping all writes. *)
val commit : t -> txn -> unit

(** Current statics bump pointer — capture before a transaction to later
    fingerprint exactly the state that a rollback restores. *)
val statics_mark : t -> int

(** Hex digest of the transactional portion of the arena (statics below
    [statics_upto], the heap, and the stack).  It re-hashes only the
    pages written since the last call; [~from_scratch:true] re-hashes
    every page through the same code and must give the same value. *)
val fingerprint : ?from_scratch:bool -> ?statics_upto:int -> t -> string

(** Attach a TerraSan shadow map; every subsequent access is checked
    against it in addition to the arena bounds. *)
val attach_shadow : t -> Shadow.t -> unit

val shadow : t -> Shadow.t option
val checked : t -> bool

(** Attach a Tprof probe; sanitizer shadow checks are counted against it
    when profiling is on (the probe never alters the access itself). *)
val set_probe : t -> Tprof.Probe.t -> unit
val statics_base : int
val heap_base : t -> int
val heap_limit : t -> int
val stack_top : t -> int

(** Bump-allocate static storage (for globals and constant data). *)
val alloc_static : t -> align:int -> int -> int

val get_u8 : t -> int -> int
val get_i8 : t -> int -> int
val get_u16 : t -> int -> int
val get_i16 : t -> int -> int
val get_i32 : t -> int -> int32
val get_i64 : t -> int -> int64
val get_f32 : t -> int -> float
val get_f64 : t -> int -> float
val set_u8 : t -> int -> int -> unit
val set_u16 : t -> int -> int -> unit
val set_i32 : t -> int -> int32 -> unit
val set_i64 : t -> int -> int64 -> unit
val set_f32 : t -> int -> float -> unit
val set_f64 : t -> int -> float -> unit

(** [get_f64s t addr lanes] fills [lanes] from consecutive f64 values at
    [addr]; [set_f64s t addr lanes] stores them back.  Each lane is
    checked exactly as by {!get_f64}/{!set_f64}, but nothing is boxed.
    The [f32] forms convert through single precision like {!get_f32}
    and {!set_f32}. *)
val get_f64s : t -> int -> float array -> unit

val get_f32s : t -> int -> float array -> unit
val set_f64s : t -> int -> float array -> unit
val set_f32s : t -> int -> float array -> unit
val blit : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> int -> int -> char -> unit

(** Longest C string {!get_cstring} will scan before faulting. *)
val max_cstring : int

(** Read a NUL-terminated string; faults if no NUL appears within
    {!max_cstring} bytes. *)
val get_cstring : t -> int -> string

(** Silently corrupt one byte, bypassing all checks (fault injection). *)
val corrupt_byte : t -> int -> unit

(** Write [s] plus a terminating NUL at [addr]. *)
val set_cstring : t -> int -> string -> unit

(** Flip one byte without journaling it, bypassing all checks: a
    rollback-journal bug, for fault-injection tests only. *)
val stray_store : t -> int -> unit

(** {2 Checkpoint support ({!Session})} *)

(** Bytes [0, statics_mark), verbatim. *)
val statics_image : t -> string

(** [(offset, contents)] of every non-zero 4 KiB page of
    [heap_base, size), in offset order.  Only pages written since
    {!create} or {!load_image} are read. *)
val heap_pages : t -> (int * string) list

(** Replace the arena with an image: all zero but for [statics] at 0 and
    the [(offset, contents)] pages, with the statics bump pointer at
    [statics_ptr].  Raises [Invalid_argument] inside a transaction. *)
val load_image :
  t -> statics_ptr:int -> statics:string -> pages:(int * string) list -> unit
