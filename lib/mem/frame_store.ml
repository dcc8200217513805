type t = {
  geo : Page.geometry;
  frames : (int, bytes) Hashtbl.t;
  (* One-entry cache over [frames]: the word-access fast path hits the same
     page repeatedly (array sweeps, spin loops), so the common case skips
     the Hashtbl probe entirely.  [last_page = -1] means empty. *)
  mutable last_page : int;
  mutable last_frame : bytes;
}

let create ~geometry =
  {
    geo = geometry;
    frames = Hashtbl.create 64;
    last_page = -1;
    last_frame = Bytes.empty;
  }

let geometry t = t.geo
let has_frame t page = Hashtbl.mem t.frames page

let frame t page =
  if t.last_page = page then t.last_frame
  else begin
    let b =
      match Hashtbl.find_opt t.frames page with
      | Some b -> b
      | None ->
          let b = Bytes.make (Page.size t.geo) '\000' in
          Hashtbl.add t.frames page b;
          b
    in
    t.last_page <- page;
    t.last_frame <- b;
    b
  end

let peek t page =
  if t.last_page = page then Some t.last_frame else Hashtbl.find_opt t.frames page

(* Installing takes over as the cached entry: the next access is almost
   always to the page that just arrived. *)
let install_owned t page data =
  if Bytes.length data <> Page.size t.geo then
    invalid_arg "Frame_store.install_owned: wrong page length";
  Hashtbl.replace t.frames page data;
  t.last_page <- page;
  t.last_frame <- data

(* Over an existing frame the data is blitted in place: a fresh 4 KiB copy
   would go straight to the major heap.  No caller holds a frame across an
   install expecting the old contents (they copy out what they keep), and
   [data] may be that very frame: blitting a frame onto itself is a no-op. *)
let install t page data =
  if Bytes.length data <> Page.size t.geo then
    invalid_arg "Frame_store.install: wrong page length";
  match if t.last_page = page then t.last_frame else Hashtbl.find t.frames page with
  | frame ->
      Bytes.blit data 0 frame 0 (Bytes.length data);
      t.last_page <- page;
      t.last_frame <- frame
  | exception Not_found -> install_owned t page (Bytes.copy data)

let drop t page =
  Hashtbl.remove t.frames page;
  if t.last_page = page then begin
    t.last_page <- -1;
    t.last_frame <- Bytes.empty
  end

let frame_count t = Hashtbl.length t.frames

let check_word_aligned addr =
  if addr land 7 <> 0 then
    invalid_arg (Printf.sprintf "Frame_store: unaligned word access at %#x" addr)

let read_int t ~addr =
  check_word_aligned addr;
  let b = frame t (Page.page_of_addr t.geo addr) in
  Int64.to_int (Bytes.get_int64_le b (Page.offset_of_addr t.geo addr))

let write_int t ~addr v =
  check_word_aligned addr;
  let b = frame t (Page.page_of_addr t.geo addr) in
  Bytes.set_int64_le b (Page.offset_of_addr t.geo addr) (Int64.of_int v)

let read_byte t ~addr =
  let b = frame t (Page.page_of_addr t.geo addr) in
  Char.code (Bytes.get b (Page.offset_of_addr t.geo addr))

let write_byte t ~addr v =
  if v < 0 || v > 255 then invalid_arg "Frame_store.write_byte: out of range";
  let b = frame t (Page.page_of_addr t.geo addr) in
  Bytes.set b (Page.offset_of_addr t.geo addr) (Char.chr v)

let copy_page = Bytes.copy
