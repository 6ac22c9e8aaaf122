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
    and {!nonzero_pages} skip it. *)

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

type t = {
  len : int;  (** bytes covered *)
  npages : int;
  ngroups : int;
  state : Bytes.t;  (** one byte per page, padded to whole groups *)
  mutable cache : cache option;  (** allocated by the first digest *)
}

let create len =
  let npages = (len + page_size - 1) lsr page_bits in
  let ngroups = (npages + group_pages - 1) / group_pages in
  {
    len;
    npages;
    ngroups;
    state = Bytes.make (ngroups * group_pages) unwritten;
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

let hash_page t c bytes p =
  let d = Digest.subbytes bytes (p lsl page_bits) (page_len t p) in
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
let root t bytes ~first_group =
  let c = cache t in
  for g = first_group to t.ngroups - 1 do
    if Bytes.unsafe_get c.stale g <> '\000' || group_dirty t g then begin
      let p0 = g * group_pages in
      let p1 = min t.npages (p0 + group_pages) in
      for p = p0 to p1 - 1 do
        if Bytes.unsafe_get t.state p = dirty then hash_page t c bytes p
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
let prefix t bytes upto =
  let c = cache t in
  let full = upto lsr page_bits in
  for p = 0 to full - 1 do
    if Bytes.unsafe_get t.state p = dirty then hash_page t c bytes p
  done;
  Digest.string
    (Bytes.sub_string c.pages 0 (full * dlen)
    ^ Digest.subbytes bytes (full lsl page_bits) (upto land (page_size - 1)))

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
let nonzero_pages t bytes ~from =
  let acc = ref [] in
  for p = t.npages - 1 downto from lsr page_bits do
    if Bytes.unsafe_get t.state p <> unwritten then begin
      let off = p lsl page_bits and len = page_len t p in
      let zero = ref true and i = ref 0 in
      while !zero && !i + 8 <= len do
        if Bytes.get_int64_ne bytes (off + !i) <> 0L then zero := false;
        i := !i + 8
      done;
      while !zero && !i < len do
        if Bytes.get bytes (off + !i) <> '\000' then zero := false;
        incr i
      done;
      if not !zero then acc := (off, Bytes.sub_string bytes off len) :: !acc
    end
  done;
  !acc

(** Replace [bytes] with an image: zero every written page, forget all
    digests, then write each [(offset, contents)], marking its pages. *)
let load t bytes pages =
  for p = 0 to t.npages - 1 do
    if Bytes.unsafe_get t.state p <> unwritten then begin
      Bytes.fill bytes (p lsl page_bits) (page_len t p) '\000';
      Bytes.unsafe_set t.state p unwritten
    end
  done;
  t.cache <- None;
  List.iter
    (fun (off, data) ->
      let len = String.length data in
      touch t off len;
      Bytes.blit_string data 0 bytes off len)
    pages
