(** TerraSan's shadow map over the VM heap: per-byte addressability
    state (unaddressable / addressable / freed-poison / redzone) plus a
    registry of block bounds, so memory-safety violations carry the
    faulting address, the access size, and the owning block. *)

type state = Unaddressable | Addressable | Freed | Redzone

type kind =
  | Heap_overflow
  | Use_after_free
  | Oob
  | Double_free
  | Invalid_free
  | Invalid_realloc

type violation = {
  vkind : kind;
  vaddr : int;  (** first faulting byte (or the freed pointer) *)
  vlen : int;  (** access size in bytes; 0 for free-class bugs *)
  vwhat : string;  (** the operation, e.g. "store i32" or "free" *)
  vblock : (int * int) option;  (** concerned block: (payload, size) *)
}

exception Violation of violation

type t

(** An open shadow-state transaction (see {!Mem.txn}): page-CoW
    pre-images of the per-byte map plus copies of the block registries. *)
type txn

(** Shadow the heap region [\[base, limit)], all unaddressable.  The
    map is lazily zeroed like the arena ({!Mem}), so it costs the pages
    marked, not the region's size. *)
val create : base:int -> limit:int -> t

(** Start journaling shadow mutations; does not nest. *)
val begin_txn : t -> txn

(** Restore the map and both block registries to their pre-transaction
    state. *)
val rollback : t -> txn -> unit

val commit : t -> txn -> unit

(** Hex digest of the map plus the sorted block registries; the map is
    digested like the arena, see {!Mem.fingerprint}. *)
val fingerprint : ?from_scratch:bool -> t -> string

val base : t -> int
val limit : t -> int
val covers : t -> int -> bool
val state_at : t -> int -> state

(** Set the state of a byte range (clamped to the shadowed region). *)
val mark : t -> addr:int -> len:int -> state -> unit

(** Make one byte unaddressable (fault injection). *)
val poison : t -> int -> unit

(** Record a live block: payload address, requested size, and the full
    block extent including redzones. *)
val note_block : t -> payload:int -> size:int -> lo:int -> hi:int -> unit

(** Move a block from the live set to the quarantined set. *)
val retire_block : t -> int -> unit

(** Drop a quarantined block (its memory is being recycled). *)
val forget_block : t -> int -> unit

(** The live or quarantined block whose extent contains an address. *)
val find_block : t -> int -> (int * int) option

(** Build a {!Violation} for a free-class bug at [addr]. *)
val violation : t -> kind:kind -> what:string -> addr:int -> len:int -> exn

(** Check an access; raises {!Violation} at the first bad byte. *)
val check : t -> what:string -> addr:int -> len:int -> unit

(** Stable diagnostic code for a violation kind, e.g. ["san.heap-overflow"]. *)
val kind_code : kind -> string

(** Human-readable one-line description of a violation. *)
val describe : violation -> string

(** [(offset, contents)] of every non-zero 4 KiB page of the byte map,
    in offset order. *)
val map_pages : t -> (int * string) list

(** Both block registries as sorted assoc lists
    [(payload, (size, lo, hi))]: live first, then quarantined. *)
val entries :
  t -> (int * (int * int * int)) list * (int * (int * int * int)) list

(** Replace the whole state from a checkpoint: the byte map all
    unaddressable but for the [(offset, contents)] pages, and both block
    registries.  Raises [Invalid_argument] inside a transaction. *)
val load_image :
  t ->
  pages:(int * string) list ->
  live:(int * (int * int * int)) list ->
  freed:(int * (int * int * int)) list ->
  unit
