open Dsmpm2_sim

let descriptor_bytes = 256

type pending = { mutable us : float }

type thread = {
  tid : int;
  mutable node : int;
  mutable stack_bytes : int;
  mutable attached_bytes : int;
  mutable alive : bool;
  pending : pending;
      (* lazily charged CPU work, in an all-float record so that adding to
         it stores the sum unboxed *)
  mutable joiners : (unit -> unit) list;
  migratable : bool;
  mutable requested_node : int option;
      (* set by the load balancer; honoured at the next safe point *)
}

type t = {
  eng : Engine.t;
  cpus : Cpu.t array;
  mutable next_tid : int;
  by_fiber : (int, thread) Hashtbl.t;
  (* Holds the live threads only: a thread leaves it when its body ends,
     so the table (and [live_threads]) is O(live), not O(ever spawned).
     One-entry cache over [by_fiber]: a thread asks for itself on every
     shared access.  Reaping a thread clears the cache if it holds it, so
     the cached one cannot go stale.  [last_fid = -1] means empty. *)
  mutable last_fid : int;
  mutable last_thread : thread;
}

let no_thread =
  {
    tid = -1;
    node = -1;
    stack_bytes = 0;
    attached_bytes = 0;
    alive = false;
    pending = { us = 0. };
    joiners = [];
    migratable = false;
    requested_node = None;
  }

let create eng ~nodes =
  if nodes <= 0 then invalid_arg "Marcel.create: nodes must be positive";
  {
    eng;
    cpus = Array.init nodes (fun i -> Cpu.create ~name:(Printf.sprintf "node%d" i) ());
    next_tid = 0;
    by_fiber = Hashtbl.create 64;
    last_fid = -1;
    last_thread = no_thread;
  }

let engine t = t.eng
let node_count t = Array.length t.cpus
let cpu t i = t.cpus.(i)

let thread_of_fiber t fid =
  if fid = t.last_fid then t.last_thread
  else
    match Hashtbl.find t.by_fiber fid with
    | th ->
        t.last_fid <- fid;
        t.last_thread <- th;
        th
    | exception Not_found -> no_thread

let self_opt t =
  match Engine.current_fiber t.eng with
  | None -> None
  | Some fid ->
      let th = thread_of_fiber t fid in
      if th == no_thread then None else Some th

let self t =
  let th =
    match Engine.current_fiber t.eng with
    | None -> no_thread
    | Some fid -> thread_of_fiber t fid
  in
  if th == no_thread then failwith "Marcel.self: not running inside a Marcel thread";
  th

let node_of_fiber t fid = (thread_of_fiber t fid).node
let tid_of_fiber t fid = (thread_of_fiber t fid).tid

let tid th = th.tid
let node th = th.node
let is_migratable th = th.migratable
let request_move th ~dst = if th.migratable then th.requested_node <- Some dst
let pending_move th = th.requested_node
let clear_move th = th.requested_node <- None

let thread_count t = Hashtbl.length t.by_fiber

let live_threads t ~node =
  Hashtbl.fold
    (fun _ th acc -> if th.alive && th.node = node then th :: acc else acc)
    t.by_fiber []
  |> List.sort (fun a b -> compare a.tid b.tid)
let stack_bytes th = th.stack_bytes
let attached_bytes th = th.attached_bytes
let set_attached_bytes th n = th.attached_bytes <- n
let footprint_bytes th = th.stack_bytes + descriptor_bytes + th.attached_bytes
let is_alive th = th.alive

(* The end of every thread body, normal or raising.  Pay any outstanding
   lazily-charged CPU work before dying so accounting is complete (while the
   thread is still registered: the fault gate maps this fiber to its node if
   the payment suspends), then reap the thread and wake the joiners.  From
   the reap on, the fiber reads as "no thread". *)
let finish t th =
  (if th.pending.us > 0. then begin
     let us = th.pending.us in
     th.pending.us <- 0.;
     Cpu.compute t.eng t.cpus.(th.node) (Time.of_us us)
   end);
  th.alive <- false;
  (match Engine.current_fiber t.eng with
  | None -> ()
  | Some fid ->
      Hashtbl.remove t.by_fiber fid;
      if t.last_fid = fid then begin
        t.last_fid <- -1;
        t.last_thread <- no_thread
      end);
  let joiners = th.joiners in
  th.joiners <- [];
  List.iter (fun resume -> resume ()) joiners

let spawn t ?(stack_bytes = 1024) ?(attached_bytes = 0) ?(migratable = false) ~node f =
  if node < 0 || node >= Array.length t.cpus then
    invalid_arg "Marcel.spawn: node out of range";
  let th =
    {
      tid = t.next_tid;
      node;
      stack_bytes;
      attached_bytes;
      alive = true;
      pending = { us = 0. };
      joiners = [];
      migratable;
      requested_node = None;
    }
  in
  t.next_tid <- t.next_tid + 1;
  let fid =
    Engine.spawn t.eng (fun () ->
        match f () with
        | () -> finish t th
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            finish t th;
            Printexc.raise_with_backtrace e bt)
  in
  Hashtbl.replace t.by_fiber fid th;
  th

let join t th =
  if th.alive then
    Engine.suspend t.eng (fun resume -> th.joiners <- resume :: th.joiners)

let yield t = Engine.suspend t.eng (fun resume -> resume ())

let compute t us =
  if us < 0. then invalid_arg "Marcel.compute: negative duration";
  let th = self t in
  let total = us +. th.pending.us in
  th.pending.us <- 0.;
  if total > 0. then Cpu.compute t.eng t.cpus.(th.node) (Time.of_us total)

(* The sum is stored unboxed in [th.pending]: a charge of an already boxed
   [us] allocates nothing. *)
let charge t us =
  if us < 0. then invalid_arg "Marcel.charge: negative duration";
  let th = self t in
  th.pending.us <- th.pending.us +. us

let flush_charges t =
  match self_opt t with
  | None -> ()
  | Some th ->
      if th.pending.us > 0. then begin
        let us = th.pending.us in
        th.pending.us <- 0.;
        Cpu.compute t.eng t.cpus.(th.node) (Time.of_us us)
      end

let set_node t th node =
  if node < 0 || node >= Array.length t.cpus then
    invalid_arg "Marcel.set_node: node out of range";
  if th.pending.us > 0. then
    invalid_arg "Marcel.set_node: thread has unflushed CPU charges";
  th.node <- node

module Mutex = struct
  type marcel = t
  type t = { mutable locked : bool; waiting : (unit -> unit) Queue.t }

  let create () = { locked = false; waiting = Queue.create () }

  let lock (m : marcel) t =
    if t.locked then Engine.suspend m.eng (fun resume -> Queue.add resume t.waiting)
    else t.locked <- true

  let try_lock (_ : marcel) t =
    if t.locked then false
    else begin
      t.locked <- true;
      true
    end

  let unlock (_ : marcel) t =
    if not t.locked then invalid_arg "Marcel.Mutex.unlock: not locked";
    match Queue.take_opt t.waiting with
    | None -> t.locked <- false
    | Some resume -> resume () (* ownership passes directly to the waiter *)

  let locked t = t.locked
end

module Cond = struct
  type marcel = t
  type t = { waiting : (unit -> unit) Queue.t }

  let create () = { waiting = Queue.create () }

  let wait (m : marcel) t mutex =
    Engine.suspend m.eng (fun resume ->
        Queue.add resume t.waiting;
        Mutex.unlock m mutex);
    Mutex.lock m mutex

  let signal (_ : marcel) t =
    match Queue.take_opt t.waiting with None -> () | Some resume -> resume ()

  let broadcast (_ : marcel) t =
    let rec drain () =
      match Queue.take_opt t.waiting with
      | None -> ()
      | Some resume ->
          resume ();
          drain ()
    in
    drain ()
end

module Sem = struct
  type marcel = t
  type t = { mutable value : int; waiting : (unit -> unit) Queue.t }

  let create n =
    if n < 0 then invalid_arg "Marcel.Sem.create: negative initial value";
    { value = n; waiting = Queue.create () }

  let acquire (m : marcel) t =
    if t.value > 0 then t.value <- t.value - 1
    else Engine.suspend m.eng (fun resume -> Queue.add resume t.waiting)

  let release (_ : marcel) t =
    match Queue.take_opt t.waiting with
    | None -> t.value <- t.value + 1
    | Some resume -> resume ()

  let value t = t.value
end
