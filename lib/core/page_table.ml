open Dsmpm2_sim
open Dsmpm2_pm2

type ext = ..
type ext += No_ext

type entry = {
  page : int;
  mutable rights : Dsmpm2_mem.Access.t;
  mutable prob_owner : int;
  mutable home : int;
  mutable copyset : int list;
  mutable protocol : int;
  mutable faulting : bool;
  mutable pinned : bool;
  fault_done : Marcel.Cond.t;
  entry_mutex : Marcel.Mutex.t;
  mutable twin : bytes option;
  mutable ext : ext;
}

type row = { row_home : int; mutable row_protocol : int }
type directory = { rows : (int, row) Hashtbl.t }

type t = {
  table_node : int;
  dir : directory;
  entries : (int, entry) Hashtbl.t;
  node_exts : (int, ext) Hashtbl.t;
  mutable table_metrics : Metrics.t option;
  (* One-entry cache over [entries], as in [Frame_store]: the access hit
     path asks for the same page again and again.  Entries are never
     removed, so the cached one cannot go stale.  [empty] means nothing is
     cached: its page, [min_int], is the page of no address. *)
  mutable last : entry;
}

exception Not_mapped of int

let make_entry ~page ~home ~owner ~protocol ~rights =
  {
    page;
    rights;
    prob_owner = owner;
    home;
    copyset = [];
    protocol;
    faulting = false;
    pinned = false;
    fault_done = Marcel.Cond.create ();
    entry_mutex = Marcel.Mutex.create ();
    twin = None;
    ext = No_ext;
  }

let empty =
  make_entry ~page:min_int ~home:0 ~owner:0 ~protocol:0
    ~rights:Dsmpm2_mem.Access.No_access

(* --- the page directory --- *)

let create_directory () = { rows = Hashtbl.create 64 }

let map dir ~page ~home ~protocol =
  if Hashtbl.mem dir.rows page then
    invalid_arg (Printf.sprintf "Page_table.map: page %d already mapped" page);
  Hashtbl.add dir.rows page { row_home = home; row_protocol = protocol }

let row dir page =
  match Hashtbl.find_opt dir.rows page with
  | Some r -> r
  | None -> raise (Not_mapped page)

let home_of dir page = (row dir page).row_home
let protocol_of dir page = (row dir page).row_protocol
let set_protocol dir ~page protocol = (row dir page).row_protocol <- protocol

let mapped_pages dir =
  List.sort compare (Hashtbl.fold (fun page _ acc -> page :: acc) dir.rows [])

(* --- per-node tables --- *)

let create dir ~node =
  {
    table_node = node;
    dir;
    entries = Hashtbl.create 16;
    node_exts = Hashtbl.create 8;
    table_metrics = None;
    last = empty;
  }

let node t = t.table_node
let set_metrics t m = t.table_metrics <- Some m

let add t entry =
  (match t.table_metrics with
  | Some m -> Metrics.incr m ~node:t.table_node "page.mapped"
  | None -> ());
  Hashtbl.add t.entries entry.page entry;
  entry

let declare t ~page ~home ~owner ~protocol ~rights =
  if Hashtbl.mem t.entries page then
    invalid_arg (Printf.sprintf "Page_table.declare: page %d already mapped" page);
  add t (make_entry ~page ~home ~owner ~protocol ~rights)

(* A node's first touch of a page: its entry starts in the state the
   directory row implies, with no rights and the home as probable owner. *)
let materialise t page =
  let r = row t.dir page in
  add t
    (make_entry ~page ~home:r.row_home ~owner:r.row_home
       ~protocol:r.row_protocol ~rights:Dsmpm2_mem.Access.No_access)

let find t page =
  let e = t.last in
  if e.page = page then e
  else begin
    let e =
      match Hashtbl.find t.entries page with
      | e -> e
      | exception Not_found -> materialise t page
    in
    t.last <- e;
    e
  end

let find_opt t page =
  if t.last.page = page then Some t.last else Hashtbl.find_opt t.entries page

let mem t page = Hashtbl.mem t.entries page

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> compare a.page b.page)

let copyset_add e n =
  if not (List.mem n e.copyset) then
    e.copyset <- List.sort compare (n :: e.copyset)

let copyset_remove e n = e.copyset <- List.filter (fun m -> m <> n) e.copyset

let node_ext t ~protocol =
  match Hashtbl.find_opt t.node_exts protocol with Some e -> e | None -> No_ext

let set_node_ext t ~protocol ext = Hashtbl.replace t.node_exts protocol ext
