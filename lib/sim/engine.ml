type event = { time : Time.t; seq : int; tie : int; action : unit -> unit }

type t = {
  mutable clock : Time.t;
  queue : event Heap.t;
  mutable seq : int;
  mutable live : int;
  mutable executed : int;
  mutable next_fiber : int;
  mutable current : int option;
  tie_rng : Rng.t option;
      (* schedule perturbation: when set, same-time events are ordered by a
         seed-driven tie key instead of insertion order *)
  tie_seed : int option;
  mutable gate : (int -> Time.t -> Time.t option) option;
      (* fault injection: consulted at execution time before each fiber
         slice; [Some until] parks the slice until that instant *)
  mutable parked : int;
  mutable handler : (unit, unit) Effect.Deep.handler;
      (* the one Suspend handler, built by [create] over this engine *)
}

exception Stalled of int

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let cmp_event a b =
  let c = compare a.time b.time in
  if c <> 0 then c
  else
    let c = compare a.tie b.tie in
    if c <> 0 then c else compare a.seq b.seq

let now t = t.clock
let live_fibers t = t.live
let events_executed t = t.executed
let current_fiber t = t.current
let tie_seed t = t.tie_seed

let at t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is in the past (now %d)" time t.clock);
  let seq = t.seq in
  t.seq <- seq + 1;
  (* The tie key is drawn in scheduling order, so a given seed always maps
     the same (deterministic) sequence of [at] calls to the same ordering:
     every perturbed run replays exactly from its seed. *)
  let tie = match t.tie_rng with None -> 0 | Some rng -> Rng.int rng 0x40000000 in
  Heap.add t.queue { time; seq; tie; action }

let after t dt action = at t Time.(t.clock + dt) action

(* --- fault gate --- *)

let set_gate t g = t.gate <- Some g
let clear_gate t = t.gate <- None
let parked_count t = t.parked

(* Observer events: scheduled with the maximal tie key and without drawing
   from the perturbation RNG, so they run after every same-time workload
   event and attaching them leaves a seeded schedule bit-for-bit intact
   (the tie-key stream only advances for workload events). *)
let at_observer t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at_observer: time %d is in the past (now %d)" time
         t.clock);
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.add t.queue { time; seq; tie = max_int; action }

let periodic t ~interval tick =
  if interval <= Time.zero then
    invalid_arg "Engine.periodic: interval must be positive";
  let rec arm () =
    at_observer t Time.(t.clock + interval) (fun () -> if tick () then arm ())
  in
  arm ()

let pending_events t = Heap.length t.queue

(* Runs a slice of fiber [cur]'s code (its body or a resumed continuation)
   with [current] set for the duration, so that thread packages built on top
   can implement "self".  [cur] is the fiber's own [Some fid], allocated
   once at [spawn] and handed from slice to slice, so a dispatch allocates
   no option; the restore is a plain match, not a [Fun.protect] closure.
   The slice is [f x], not a thunk, so that a resume can pass a static [f]
   and its continuation instead of building a closure over it. *)
let in_fiber t cur f x =
  let prev = t.current in
  t.current <- cur;
  match f x with
  | () -> t.current <- prev
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.current <- prev;
      Printexc.raise_with_backtrace e bt

let fid_of = function Some fid -> fid | None -> assert false

(* The fault gate, wrapped around a fiber slice so that it is consulted at
   *execution* time, when the fiber's host node is known to whoever
   installed the gate.  On [None] the slice runs untouched — the no-fault
   path costs one option match and draws nothing, so an installed but empty
   plan is bit-for-bit schedule-neutral.  On [Some until] the slice is
   re-scheduled at [until] (and re-checked there, in case windows chain),
   which is exactly "fibers on a crashed node are parked and respawned on
   restart". *)
let rec slice t cur f x () =
  match t.gate with
  | None -> in_fiber t cur f x
  | Some g -> (
      match g (fid_of cur) t.clock with
      | None -> in_fiber t cur f x
      | Some until ->
          t.parked <- t.parked + 1;
          let until =
            if until <= t.clock then Time.(t.clock + Time.of_ns 1) else until
          in
          at t until (slice t cur f x))

let continue_unit k = Effect.Deep.continue k ()

(* The one Suspend handler of the engine.  Effects are handled on the stack
   that ran the slice, inside its [in_fiber], so the suspending fiber is
   [t.current]: nothing in the handler is per fiber.  The fiber accounting
   ([live]) brackets the whole fiber lifetime: a suspended fiber remains
   live until its continuation eventually terminates. *)
let make_handler t =
  let open Effect.Deep in
  {
    retc = (fun () -> t.live <- t.live - 1);
    exnc =
      (fun e ->
        t.live <- t.live - 1;
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let cur = t.current in
                let resumed = ref false in
                let resume () =
                  if !resumed then invalid_arg "Engine: fiber resumed twice";
                  resumed := true;
                  at t t.clock (slice t cur continue_unit k)
                in
                register resume)
        | _ -> None);
  }

let create ?tie_seed () =
  let t =
    {
      clock = Time.zero;
      queue = Heap.create ~cmp:cmp_event;
      seq = 0;
      live = 0;
      executed = 0;
      next_fiber = 0;
      current = None;
      tie_rng = Option.map (fun seed -> Rng.create ~seed) tie_seed;
      tie_seed;
      gate = None;
      parked = 0;
      handler = { retc = Fun.id; exnc = raise; effc = (fun _ -> None) };
    }
  in
  t.handler <- make_handler t;
  t

let spawn t f =
  let fid = t.next_fiber in
  t.next_fiber <- fid + 1;
  t.live <- t.live + 1;
  after t Time.zero
    (slice t (Some fid) (fun f -> Effect.Deep.match_with f () t.handler) f);
  fid

let suspend _t register = Effect.perform (Suspend register)
let sleep t dt = suspend t (fun resume -> after t dt resume)

(* The dispatch loop reads the queue through [Heap.top]/[remove_top], so an
   event costs no option. *)
let run ?limit t =
  let continue_ = ref true in
  while !continue_ do
    if Heap.is_empty t.queue then begin
      if t.live > 0 then raise (Stalled t.live);
      continue_ := false
    end
    else
      let ev = Heap.top t.queue in
      match limit with
      | Some l when ev.time > l -> continue_ := false
      | Some _ | None ->
          Heap.remove_top t.queue;
          t.clock <- ev.time;
          t.executed <- t.executed + 1;
          ev.action ()
  done
