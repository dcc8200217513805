open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

type t = Runtime.t

exception Fault_storm of { addr : int; mode : Access.mode; attempts : int }

let create ?costs ?tie_seed ?jitter ?page_size ~nodes ~driver () =
  let pm2 = Pm2.create ?tie_seed ?jitter ?page_size ~nodes ~driver () in
  let rt = Runtime.create ?costs pm2 in
  Dsm_comm.init rt;
  rt

let pm2 (rt : t) = rt.Runtime.pm2
let nodes = Runtime.nodes
let stats (rt : t) = rt.Runtime.instr
let engine = Runtime.engine

(* --- protocols --- *)

let create_protocol (rt : t) proto = Protocol.register rt.Runtime.registry proto

let set_default_protocol (rt : t) id =
  ignore (Runtime.proto rt id);
  rt.Runtime.default_protocol <- id

let default_protocol (rt : t) = rt.Runtime.default_protocol

let protocol_by_name (rt : t) name =
  Option.map fst (Protocol.find_by_name rt.Runtime.registry name)

let protocol_name (rt : t) id = (Runtime.proto rt id).Protocol.name

(* --- shared memory --- *)

type home_policy = Round_robin | On_node of int | Block

let malloc (rt : t) ?protocol ?(home = Round_robin) size =
  if size <= 0 then invalid_arg "Dsm.malloc: size must be positive";
  let protocol =
    match protocol with Some p -> p | None -> rt.Runtime.default_protocol
  in
  let init = (Runtime.proto rt protocol).Protocol.on_page_init in
  let n = Runtime.nodes rt in
  let page_size = Page.size rt.Runtime.geo in
  let npages = (size + page_size - 1) / page_size in
  let addr = Isoalloc.alloc_pages (Pm2.iso rt.Runtime.pm2) npages in
  let first_page = Page.page_of_addr rt.Runtime.geo addr in
  for i = 0 to npages - 1 do
    let page = first_page + i in
    let home_node =
      match home with
      | Round_robin -> i mod n
      | On_node node ->
          if node < 0 || node >= n then invalid_arg "Dsm.malloc: home node out of range";
          node
      | Block -> min (n - 1) (i * n / npages)
    in
    (* One directory row and the home's entry; every other node's entry is
       created on its first touch (see [Page_table.find]). *)
    Page_table.map rt.Runtime.directory ~page ~home:home_node ~protocol;
    ignore
      (Page_table.declare rt.Runtime.tables.(home_node) ~page ~home:home_node
         ~owner:home_node ~protocol ~rights:Access.Read_write);
    (* Materialise the reference copy eagerly so sends always find a frame. *)
    ignore (Frame_store.frame rt.Runtime.stores.(home_node) page);
    match init with None -> () | Some init -> init rt ~node:home_node ~page
  done;
  addr

let region_pages (rt : t) ~addr ~size =
  Page.pages_of_range rt.Runtime.geo ~addr ~len:size

type attr = { attr_protocol : int option; attr_home : home_policy }

let attr ?protocol ?(home = Round_robin) () =
  { attr_protocol = protocol; attr_home = home }

let malloc_attr rt a size = malloc rt ?protocol:a.attr_protocol ~home:a.attr_home size

let switch_protocol (rt : t) ~addr ~size ~protocol =
  let init = (Runtime.proto rt protocol).Protocol.on_page_init in
  let pages = region_pages rt ~addr ~size in
  let n = Runtime.nodes rt in
  (* Only the entries that exist can hold rights, twins or faults: an
     untouched node's entry is the default state, which the new row
     reproduces on its first touch. *)
  let existing page =
    List.filter_map
      (fun node ->
        Option.map (fun e -> (node, e)) (Page_table.find_opt (Runtime.table rt node) page))
      (List.init n Fun.id)
  in
  (* Pass 1: the area must be mapped and quiescent on every node. *)
  List.iter
    (fun page ->
      ignore (Runtime.home rt page);
      List.iter
        (fun (node, (e : Page_table.entry)) ->
          if e.faulting || e.pinned then
            invalid_arg
              (Printf.sprintf
                 "Dsm.switch_protocol: page %d has a fault in flight on node %d" page
                 node);
          if e.twin <> None then
            invalid_arg
              (Printf.sprintf
                 "Dsm.switch_protocol: page %d has an unflushed twin on node %d \
                  (release enclosing locks first)"
                 page node))
        (existing page))
    pages;
  (* Pass 2: consolidate the authoritative copy on the home and reset the
     distributed table to the post-allocation state under the new id. *)
  List.iter
    (fun page ->
      let home = Runtime.home rt page in
      let entries = existing page in
      let authoritative =
        match
          List.find_opt
            (fun (_, (e : Page_table.entry)) -> e.rights = Access.Read_write)
            entries
        with
        | Some (node, _) -> node
        | None -> home
      in
      if authoritative <> home then
        Frame_store.install (Runtime.store rt home) page
          (Frame_store.frame (Runtime.store rt authoritative) page);
      Page_table.set_protocol rt.Runtime.directory ~page protocol;
      List.iter
        (fun (node, (e : Page_table.entry)) ->
          e.protocol <- protocol;
          e.prob_owner <- home;
          e.copyset <- [];
          e.rights <- (if node = home then Access.Read_write else Access.No_access))
        entries;
      for node = 0 to n - 1 do
        if node <> home then Frame_store.drop (Runtime.store rt node) page
      done;
      (* A protocol with an init hook (the quorum family) needs every
         replica seeded from the consolidated copy, so here its entries are
         created on every node. *)
      match init with
      | None -> ()
      | Some init -> for node = 0 to n - 1 do init rt ~node ~page done)
    pages

(* --- access detection --- *)

(* A fault: detection costs, the protocol's fault action, the latency. *)
let fault (rt : t) ~node ~page ~mode (proto : Runtime.t Protocol.t) =
  let marcel = Runtime.marcel rt in
  let h = rt.Runtime.instr_h in
  let started = Engine.now (Runtime.engine rt) in
  (match proto.Protocol.detection with
  | Protocol.Page_fault ->
      Stats.bump
        (match mode with
        | Access.Read -> h.Instrument.h_read_faults
        | Access.Write -> h.Instrument.h_write_faults);
      Metrics.incr rt.Runtime.metrics ~node ~protocol:proto.Protocol.name
        (match mode with
        | Access.Read -> Instrument.m_read_faults
        | Access.Write -> Instrument.m_write_faults);
      Marcel.compute marcel rt.Runtime.costs.page_fault_us;
      Stats.record h.Instrument.h_stage_fault
        (Time.of_us rt.Runtime.costs.page_fault_us)
  | Protocol.Inline_check -> Stats.bump h.Instrument.h_check_misses);
  (* Each fault is the root of a causal span: the request, transfer and
     install events it triggers — locally and on remote nodes — carry
     the same id. *)
  let span = Monitor.new_span rt in
  if Monitor.enabled rt then
    Monitor.emit rt ~span
      (Trace.Fault
         {
           node;
           page;
           protocol = proto.Protocol.name;
           mode = Access.mode_to_string mode;
         });
  Monitor.with_thread_span rt span (fun () ->
      match mode with
      | Access.Read -> proto.Protocol.read_fault rt ~node ~page
      | Access.Write -> proto.Protocol.write_fault rt ~node ~page);
  let latency = Time.(Engine.now (Runtime.engine rt) - started) in
  Stats.record h.Instrument.h_stage_total latency;
  Metrics.observe rt.Runtime.metrics ~node ~protocol:proto.Protocol.name
    Instrument.m_fault_latency latency

(* Returns the calling node's entry once it allows [mode], faulting as often
   as needed.  A top-level function, not a closure, so that a hit allocates
   nothing. *)
let rec check_access (rt : t) ~addr ~mode n =
  if n > rt.Runtime.fault_loop_limit then
    raise (Fault_storm { addr; mode; attempts = n });
  let node = Runtime.self_node rt in
  let page = Page.page_of_addr rt.Runtime.geo addr in
  let e = Runtime.entry rt ~node ~page in
  let proto = Runtime.proto rt e.Page_table.protocol in
  (match proto.Protocol.detection with
  | Protocol.Inline_check ->
      Stats.bump rt.Runtime.instr_h.Instrument.h_inline_checks;
      Marcel.charge (Runtime.marcel rt) rt.Runtime.inline_check_us
  | Protocol.Page_fault -> ());
  if Access.allows e.Page_table.rights mode then begin
    Protocol_lib.unpin rt e;
    e
  end
  else begin
    fault rt ~node ~page ~mode proto;
    check_access rt ~addr ~mode (n + 1)
  end

let ensure_access rt ~addr ~mode = ignore (check_access rt ~addr ~mode 0)

(* The history records are built only while recording, so that a hit
   allocates nothing otherwise. *)
let record_read (rt : t) ~start ~addr ~value =
  match rt.Runtime.history with
  | None -> ()
  | Some _ -> Runtime.record_history rt ~start (History.Read { addr; value })

let record_write (rt : t) ~start ~addr ~value =
  match rt.Runtime.history with
  | None -> ()
  | Some _ -> Runtime.record_history rt ~start (History.Write { addr; value })

(* [e] is the entry [check_access] returned: the thread has not moved since,
   so it is this node's entry for the accessed page. *)
let post_read (rt : t) ~node (e : Page_table.entry) =
  match (Runtime.proto rt e.protocol).Protocol.on_local_read with
  | None -> ()
  | Some hook -> hook rt ~node ~page:e.page

let read_int rt addr =
  let start = Engine.now (Runtime.engine rt) in
  let e = check_access rt ~addr ~mode:Access.Read 0 in
  let node = Runtime.self_node rt in
  let value = Frame_store.read_int (Runtime.store rt node) ~addr in
  record_read rt ~start ~addr ~value;
  post_read rt ~node e;
  value

let post_write (rt : t) ~node (e : Page_table.entry) ~addr ~value =
  (match (Runtime.proto rt e.protocol).Protocol.on_local_write with
  | None -> ()
  | Some hook ->
      hook rt ~node ~page:e.page ~offset:(Page.offset_of_addr rt.Runtime.geo addr)
        ~value);
  (* A blocking hook (the quorum protocols' put round) means the write only
     takes effect now; widen its recorded real-time window to match. *)
  match rt.Runtime.history with
  | None -> ()
  | Some h ->
      History.extend_finish h
        ~tid:(Marcel.tid (Marcel.self (Runtime.marcel rt)))
        (Engine.now (Runtime.engine rt))

let write_int rt addr value =
  let start = Engine.now (Runtime.engine rt) in
  let e = check_access rt ~addr ~mode:Access.Write 0 in
  let node = Runtime.self_node rt in
  Frame_store.write_int (Runtime.store rt node) ~addr value;
  (* Record before [post_write]: propagation (update pushes, diff flushes)
     may block, and a remote read of the propagated value must find this
     write already in the history. *)
  record_write rt ~start ~addr ~value;
  post_write rt ~node e ~addr ~value

let read_byte rt addr =
  let start = Engine.now (Runtime.engine rt) in
  let e = check_access rt ~addr ~mode:Access.Read 0 in
  let node = Runtime.self_node rt in
  let b = Frame_store.read_byte (Runtime.store rt node) ~addr in
  (* History works at word granularity; report the containing word. *)
  let word_addr = addr land lnot 7 in
  let value = Frame_store.read_int (Runtime.store rt node) ~addr:word_addr in
  record_read rt ~start ~addr:word_addr ~value;
  post_read rt ~node e;
  b

let write_byte rt addr value =
  let start = Engine.now (Runtime.engine rt) in
  let e = check_access rt ~addr ~mode:Access.Write 0 in
  let node = Runtime.self_node rt in
  Frame_store.write_byte (Runtime.store rt node) ~addr value;
  (* Record at word granularity: report the containing word's new value. *)
  let word_addr = addr land lnot 7 in
  let value = Frame_store.read_int (Runtime.store rt node) ~addr:word_addr in
  record_write rt ~start ~addr:word_addr ~value;
  post_write rt ~node e ~addr:word_addr ~value

let unsafe_peek (rt : t) ~node addr =
  Frame_store.read_int (Runtime.store rt node) ~addr

let unsafe_rights (rt : t) ~node ~addr =
  let page = Page.page_of_addr rt.Runtime.geo addr in
  match Page_table.find_opt (Runtime.table rt node) page with
  | Some e -> e.Page_table.rights
  | None ->
      ignore (Runtime.home rt page);
      Access.No_access

(* --- conformance history --- *)

let enable_history (rt : t) =
  match rt.Runtime.history with
  | Some h -> h
  | None ->
      let h = History.create () in
      rt.Runtime.history <- Some h;
      h

let history (rt : t) = rt.Runtime.history

(* --- synchronization --- *)

let lock_create = Dsm_sync.lock_create
let lock_acquire = Dsm_sync.lock_acquire
let lock_release = Dsm_sync.lock_release
let with_lock = Dsm_sync.with_lock
let barrier_create = Dsm_sync.barrier_create
let barrier_wait = Dsm_sync.barrier_wait

(* --- threads and execution --- *)

let spawn (rt : t) ?stack_bytes ?attached_bytes ?migratable ~node f =
  Pm2.spawn rt.Runtime.pm2 ?stack_bytes ?attached_bytes ?migratable ~node f

let join rt th = Marcel.join (Runtime.marcel rt) th
let self_node = Runtime.self_node
let charge rt us =
  Marcel.charge (Runtime.marcel rt) us;
  Pm2.migrate_if_requested rt.Runtime.pm2

let compute rt us =
  Marcel.compute (Runtime.marcel rt) us;
  Pm2.migrate_if_requested rt.Runtime.pm2
(* --- fault injection --- *)

let inject_faults (rt : t) ?(retry = Rpc.default_retry) plan =
  let net = Pm2.network rt.Runtime.pm2 in
  Dsmpm2_net.Network.set_fault_plan net plan;
  if Fault_plan.has_faults plan then begin
    let marcel = Runtime.marcel rt in
    (* The gate is consulted at fiber-slice execution time: a slice about to
       run on a crashed node is parked (re-queued at the window's end)
       instead of executing — freeze-and-resume crash semantics.  Fibers
       that are not Marcel threads (drivers, observers) keep running. *)
    Engine.set_gate (Runtime.engine rt) (fun fid now ->
        let node = Marcel.node_of_fiber marcel fid in
        if node >= 0 && Fault_plan.is_down plan ~node now then
          Some (Fault_plan.up_at plan ~node ~now)
        else None);
    Rpc.set_retry (Runtime.rpc rt) ~seed:(Fault_plan.seed plan) (Some retry);
    (* Make the crash windows first-class in the trace: a Crash event when
       each window opens (carrying its scheduled end) and a Restart when it
       closes.  Scheduled as observer events — no tie-key draws — so the
       seeded schedule is bit-for-bit identical with or without them, and
       only when tracing is already on so unmonitored runs gain no events
       at all (their end times must not move). *)
    let eng = Runtime.engine rt in
    let tr = Pm2.trace rt.Runtime.pm2 in
    if Trace.enabled tr then
      List.iter
        (fun w ->
          let node = w.Fault_plan.w_node in
          if w.Fault_plan.w_down >= Engine.now eng then
            Engine.at_observer eng w.Fault_plan.w_down (fun () ->
                if Trace.enabled tr then
                  Trace.emit tr eng
                    (Trace.Crash { node; up = w.Fault_plan.w_up }));
          if w.Fault_plan.w_up >= Engine.now eng then
            Engine.at_observer eng w.Fault_plan.w_up (fun () ->
                if Trace.enabled tr then Trace.emit tr eng (Trace.Restart { node })))
        (Fault_plan.windows plan)
  end
  else begin
    (* An empty plan must leave every schedule bit-for-bit intact: no gate
       (zero extra tie draws) and no reply deadlines (zero extra events). *)
    Engine.clear_gate (Runtime.engine rt);
    Rpc.set_retry (Runtime.rpc rt) None
  end

let fault_plan (rt : t) =
  Dsmpm2_net.Network.fault_plan (Pm2.network rt.Runtime.pm2)

let run ?limit (rt : t) =
  (* An attached watchdog stops its timer when a run drains; re-arm it for
     this run (no-op without a watcher). *)
  Runtime.notify_rearm rt;
  Pm2.run ?limit rt.Runtime.pm2
let now_us (rt : t) = Pm2.now_us rt.Runtime.pm2
