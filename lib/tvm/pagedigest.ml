(** Page digests behind a write bitmap: what makes a fingerprint of the
    arena ({!Mem}) or of the sanitizer's shadow map ({!Shadow}) cost
    O(pages written) rather than O(bytes covered).

    The owner marks every page it writes in [state], one byte per 4 KiB
    page, and a digest re-hashes only the pages marked since the last
    one.  Page digests combine two levels up: the digests of 64 pages
    make a group digest, and the group digests make the root, so a
    digest re-hashes the dirty groups plus a root of one 16-byte digest
    per group.  The value depends only on the bytes covered, never on
    the order or history of the writes.

    The marks are the owner's own, never the rollback journal's: the
    fingerprint exists to check that journal, so a write the journal
    missed must still show up as a changed digest.

    A page not written since {!create} or {!load} is known to be zero.
    It shares a zero-page digest computed once per process, and {!load}
    and {!nonzero_pages} skip it.

    A [t] also owns the bytes it covers: a private mapping of
    [/dev/zero], which the OS backs with a real page only when it is
    first written, so the range costs what is touched, not its length.
    Every read or write of whole ranges (digests, zero scans, copies in
    and out, fills and blits) goes through the helpers here; pages are
    copied out through one 4 KiB buffer per [t], since engines, and so
    their [t]s, run on separate domains. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let group_pages = 64
let dlen = 16

(* page states *)
let unwritten = '\000'
let dirty = '\001'
let clean = '\002'

(* bit 0 of every byte of a word: set iff one of its pages is [dirty] *)
let dirty_bits = 0x0101010101010101L

let zeros = String.make page_size '\000'
let zero_page = Digest.substring zeros 0 page_size
let zero_group =
  Digest.string (String.concat "" (List.init group_pages (fun _ -> zero_page)))

type cache = {
  pages : Bytes.t;  (** [dlen] bytes per page *)
  groups : Bytes.t;  (** [dlen] bytes per group *)
  stale : Bytes.t;  (** per group: a page digest moved since the group's *)
}

type arena =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : arena;  (** the bytes covered *)
  len : int;  (** [Array1.dim data] *)
  npages : int;
  ngroups : int;
  state : Bytes.t;  (** one byte per page, padded to whole groups *)
  buf : Bytes.t;  (** one page, for digests and copies out of [data] *)
  mutable cache : cache option;  (** allocated by the first digest *)
}

(* [map_file] grows a file too short for the mapping with a write, so
   even [/dev/zero] must be opened read-write.  The mapping outlives the
   descriptor. *)
let map_zero len : arena =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| len |]))

let create len =
  let npages = (len + page_size - 1) lsr page_bits in
  let ngroups = (npages + group_pages - 1) / group_pages in
  {
    data = map_zero len;
    len;
    npages;
    ngroups;
    state = Bytes.make (ngroups * group_pages) unwritten;
    buf = Bytes.create page_size;
    cache = None;
  }

(* ------------------------------------------------------------------ *)
(* Marking *)

let touch_pages t p q = Bytes.fill t.state p (q - p + 1) dirty

(** Mark the pages of [off, off+len) written; the caller has checked
    the range.  A store inside one page costs one byte write. *)
let[@inline] touch t off len =
  if len > 0 then begin
    let p = off lsr page_bits in
    Bytes.unsafe_set t.state p dirty;
    let q = (off + len - 1) lsr page_bits in
    if q > p then touch_pages t (p + 1) q
  end

(* ------------------------------------------------------------------ *)
(* Copies in and out *)

external get64 : arena -> int -> int64 = "%caml_bigstring_get64u"
external set64 : arena -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external string_get64 : string -> int -> int64 = "%caml_string_get64u"

(* Byte order does not matter here: each copies 8 bytes as they lie. *)

(** [dst.[doff ..]] := [data.{off .. off+len-1}]. *)
let copy_out t off dst doff len =
  let i = ref 0 in
  while !i + 8 <= len do
    bytes_set64 dst (doff + !i) (get64 t.data (off + !i));
    i := !i + 8
  done;
  for j = !i to len - 1 do
    Bytes.unsafe_set dst (doff + j)
      (Bigarray.Array1.unsafe_get t.data (off + j))
  done

(** Bytes [off, off+len) as a string; the caller has checked the range. *)
let sub_string t off len =
  let b = Bytes.create len in
  copy_out t off b 0 len;
  Bytes.unsafe_to_string b

(** Write the first [len] bytes of [s] at [off], marking their pages. *)
let blit_string t s off len =
  touch t off len;
  let i = ref 0 in
  while !i + 8 <= len do
    set64 t.data (off + !i) (string_get64 s !i);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    Bigarray.Array1.unsafe_set t.data (off + j) (String.unsafe_get s j)
  done

(** Set [len] bytes at [off] to [c], marking their pages. *)
let fill t off len c =
  touch t off len;
  Bigarray.Array1.fill (Bigarray.Array1.sub t.data off len) c

(** Copy [len] bytes from [src] to [dst], which may overlap (memmove),
    marking the pages written. *)
let blit t ~src ~dst ~len =
  touch t dst len;
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.data src len)
    (Bigarray.Array1.sub t.data dst len)

let is_zero t off len =
  let rec words i =
    if i + 8 > len then tail i
    else Int64.equal (get64 t.data (off + i)) 0L && words (i + 8)
  and tail i =
    i >= len
    || (Bigarray.Array1.unsafe_get t.data (off + i) = '\000' && tail (i + 1))
  in
  words 0

(* ------------------------------------------------------------------ *)
(* Digests *)

let page_len t p = min page_size (t.len - (p lsl page_bits))

(* [buf] := [unit] repeated, by doubling blits *)
let fill_repeat buf unit =
  let len = Bytes.length buf in
  Bytes.blit_string unit 0 buf 0 (min dlen len);
  let n = ref dlen in
  while !n < len do
    let k = min !n (len - !n) in
    Bytes.blit buf 0 buf !n k;
    n := !n + k
  done

(* Every page and group digest as for an all-zero range.  Only the last
   page and group can be short, so only they differ from the shared
   zero digests. *)
let new_cache t =
  let c =
    {
      pages = Bytes.create (t.npages * dlen);
      groups = Bytes.create (t.ngroups * dlen);
      stale = Bytes.make t.ngroups '\000';
    }
  in
  fill_repeat c.pages zero_page;
  fill_repeat c.groups zero_group;
  let last = t.npages - 1 in
  if page_len t last < page_size then
    Bytes.blit_string (Digest.substring zeros 0 (page_len t last)) 0 c.pages
      (last * dlen) dlen;
  if t.npages mod group_pages <> 0 || page_len t last < page_size then
    Bytes.set c.stale (t.ngroups - 1) '\001';
  c

let cache t =
  match t.cache with
  | Some c -> c
  | None ->
      let c = new_cache t in
      t.cache <- Some c;
      c

(* Digest of [len] bytes at [off], at most one page *)
let digest t off len =
  copy_out t off t.buf 0 len;
  Digest.subbytes t.buf 0 len

let hash_page t c p =
  let d = digest t (p lsl page_bits) (page_len t p) in
  Bytes.blit_string d 0 c.pages (p * dlen) dlen;
  Bytes.unsafe_set t.state p clean;
  Bytes.unsafe_set c.stale (p / group_pages) '\001'

let group_dirty t g =
  let base = g * group_pages in
  let rec go i =
    i < group_pages
    && (Int64.logand (Bytes.get_int64_ne t.state (base + i)) dirty_bits <> 0L
       || go (i + 8))
  in
  go 0

(** Digest of the pages of groups [first_group..]: the digest over
    their group digests, each refreshed if one of its pages changed. *)
let root t ~first_group =
  let c = cache t in
  for g = first_group to t.ngroups - 1 do
    if Bytes.unsafe_get c.stale g <> '\000' || group_dirty t g then begin
      let p0 = g * group_pages in
      let p1 = min t.npages (p0 + group_pages) in
      for p = p0 to p1 - 1 do
        if Bytes.unsafe_get t.state p = dirty then hash_page t c p
      done;
      let d = Digest.subbytes c.pages (p0 * dlen) ((p1 - p0) * dlen) in
      Bytes.blit_string d 0 c.groups (g * dlen) dlen;
      Bytes.unsafe_set c.stale g '\000'
    end
  done;
  Digest.subbytes c.groups (first_group * dlen)
    ((t.ngroups - first_group) * dlen)

(** Digest of bytes [0, upto): the digests of the whole pages below
    [upto], then the part of the page holding [upto], hashed afresh. *)
let prefix t upto =
  let c = cache t in
  let full = upto lsr page_bits in
  for p = 0 to full - 1 do
    if Bytes.unsafe_get t.state p = dirty then hash_page t c p
  done;
  Digest.string
    (Bytes.sub_string c.pages 0 (full * dlen)
    ^ digest t (full lsl page_bits) (upto land (page_size - 1)))

(** A copy of [t] with every page marked dirty and no digests, so a
    digest of it re-hashes every byte: the from-scratch value the
    cached one must equal. *)
let invalidated t =
  let state = Bytes.make (Bytes.length t.state) unwritten in
  Bytes.fill state 0 t.npages dirty;
  { t with state; cache = None }

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(** [(offset, contents)] of every non-zero page at or above [from] (a
    page boundary), in offset order.  Only pages written since {!create}
    or {!load} are read: the others are zero. *)
let nonzero_pages t ~from =
  let acc = ref [] in
  for p = t.npages - 1 downto from lsr page_bits do
    if Bytes.unsafe_get t.state p <> unwritten then begin
      let off = p lsl page_bits and len = page_len t p in
      if not (is_zero t off len) then acc := (off, sub_string t off len) :: !acc
    end
  done;
  !acc

(** Replace the bytes with an image: zero every written page, forget all
    digests, then write each [(offset, contents)], marking its pages. *)
let load t pages =
  for p = 0 to t.npages - 1 do
    if Bytes.unsafe_get t.state p <> unwritten then begin
      fill t (p lsl page_bits) (page_len t p) '\000';
      Bytes.unsafe_set t.state p unwritten
    end
  done;
  t.cache <- None;
  List.iter (fun (off, s) -> blit_string t s off (String.length s)) pages
