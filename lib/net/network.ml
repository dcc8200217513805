open Dsmpm2_sim

(* Interned per-kind instrumentation: one counter and one latency series per
   message kind, resolved once at [create] so the per-message cost is an
   array index and a cell bump, not a string hash. *)
type kind_handles = {
  k_count : Stats.counter;
  k_delay : Stats.histogram;
  k_dropped : Stats.counter; (* "<kind>.dropped": per-kind fault losses *)
}

type t = {
  eng : Engine.t;
  net_driver : Driver.t;
  nnodes : int;
  last_delivery : Time.t array;
      (* index src*nnodes+dst: latest delivery time scheduled on that link *)
  loop_last : Time.t array;
      (* per node: latest loopback delivery, for the same FIFO clamp *)
  jitter : (src:int -> dst:int -> Time.t -> Time.t) option;
  mutable plan : Fault_plan.t;
  mutable net_trace : Trace.t option;
      (* fault forensics: dropped messages become typed trace events *)
  mutable span_source : unit -> int;
      (* the active span of whoever is sending, resolved at drop time; wired
         by the PM2 layer which knows the fiber -> thread -> span chain *)
  mutable sent : int;
  mutable bytes : int;
  mutable loopback : int;
  mutable dropped : int;
  net_stats : Stats.t;
  net_metrics : Metrics.t;
  kinds : kind_handles array; (* indexed by [kind_index] *)
  h_delay : Stats.histogram; (* "net.delay" on [net_stats] *)
  c_loopback : Stats.counter; (* "net.loopback" on [net_stats] *)
  c_dropped : Stats.counter; (* "net.dropped" on [net_stats] *)
  node_sent : Stats.counter array; (* per source node: "net.sent" *)
  node_bytes : Stats.counter array; (* per source node: "net.bytes" *)
  node_delay : Stats.histogram array; (* per source node: "net.delay" *)
}

let kind_names = [| "msg.null_rpc"; "msg.request"; "msg.bulk"; "msg.migration" |]

let kind_index = function
  | Driver.Null_rpc -> 0
  | Driver.Request -> 1
  | Driver.Bulk _ -> 2
  | Driver.Migration _ -> 3

let create ?jitter eng ~driver ~nodes =
  if nodes <= 0 then invalid_arg "Network.create: nodes must be positive";
  let net_stats = Stats.create () in
  let net_metrics = Metrics.create () in
  let node_group node = Metrics.group net_metrics (Metrics.labels ~node ()) in
  {
    eng;
    net_driver = driver;
    nnodes = nodes;
    last_delivery = Array.make (nodes * nodes) Time.zero;
    (* Initialised one tick below zero so the first self-send still delivers
       at the current instant (loopback stays "free"), while later same-time
       self-sends are clamped strictly after it. *)
    loop_last = Array.make nodes (Time.of_ns (-1));
    jitter;
    plan = Fault_plan.none;
    net_trace = None;
    span_source = (fun () -> Trace.no_span);
    sent = 0;
    bytes = 0;
    loopback = 0;
    dropped = 0;
    net_stats;
    net_metrics;
    kinds =
      Array.map
        (fun name ->
          {
            k_count = Stats.counter net_stats name;
            k_delay = Stats.histogram net_stats (name ^ ".delay");
            k_dropped = Stats.counter net_stats (name ^ ".dropped");
          })
        kind_names;
    h_delay = Stats.histogram net_stats "net.delay";
    c_loopback = Stats.counter net_stats "net.loopback";
    c_dropped = Stats.counter net_stats "net.dropped";
    node_sent = Array.init nodes (fun n -> Stats.counter (node_group n) "net.sent");
    node_bytes = Array.init nodes (fun n -> Stats.counter (node_group n) "net.bytes");
    node_delay =
      Array.init nodes (fun n -> Stats.histogram (node_group n) "net.delay");
  }

let driver t = t.net_driver
let nodes t = t.nnodes
let messages_sent t = t.sent
let bytes_sent t = t.bytes
let loopback_sent t = t.loopback
let messages_dropped t = t.dropped
let stats t = t.net_stats
let metrics t = t.net_metrics
let set_fault_plan t plan = t.plan <- plan
let fault_plan t = t.plan

let set_trace t trace ~span =
  t.net_trace <- Some trace;
  t.span_source <- span

let dropped_by_kind t =
  Array.to_list
    (Array.map
       (fun name -> (name, Stats.count t.net_stats (name ^ ".dropped")))
       kind_names)

(* Seeded fault-injection jitter: every message pays a bounded random extra
   latency, and a small fraction take a much larger "spike" (a retransmission,
   a switch hiccup).  The stream is drawn from its own Rng in send order —
   deterministic for a given schedule, so a perturbed run replays exactly.
   Delays only grow, and the per-link arrival clamp in [send] preserves FIFO
   regardless, so this never reorders a link. *)
let seeded_jitter ?(extra_us = 40.) ?(spike_us = 400.) ?(spike_pct = 2) ~seed () =
  if extra_us < 0. || spike_us < 0. then
    invalid_arg "Network.seeded_jitter: bounds must be non-negative";
  if spike_pct < 0 || spike_pct > 100 then
    invalid_arg "Network.seeded_jitter: spike_pct must be in [0, 100]";
  (* Salt the seed so the jitter stream differs from an engine tie-break
     stream built from the same user-level seed. *)
  let rng = Rng.create ~seed:(Rng.int (Rng.create ~seed) 0x3FFFFFFF + 0x5bd1) in
  fun ~src:_ ~dst:_ delay ->
    let extra = Time.of_us (Rng.float rng extra_us) in
    let spike =
      if spike_pct > 0 && Rng.int rng 100 < spike_pct then Time.of_us spike_us
      else Time.zero
    in
    Time.(delay + extra + spike)

(* Every drop is first-class in the trace: the event carries the link, the
   message kind and the sending operation's span, so the blame engine can
   walk from a stale read back to the exact loss.  [ev] is built lazily —
   the no-trace path allocates nothing — and only the paths that drop build
   it at all. *)
let drop t kh ev =
  t.dropped <- t.dropped + 1;
  Stats.bump t.c_dropped;
  Stats.bump kh.k_dropped;
  match t.net_trace with
  | Some tr when Trace.enabled tr ->
      Trace.emit tr t.eng ~span:(t.span_source ()) (ev ())
  | _ -> ()

let send t ~src ~dst ~cost k =
  if src < 0 || src >= t.nnodes || dst < 0 || dst >= t.nnodes then
    invalid_arg "Network.send: node id out of range";
  if src = dst then begin
    (* Loopback never touches the wire: it is counted separately (the
       [messages_sent]/[bytes_sent] columns feed bench and app summaries as
       network traffic) and goes through the same monotonic-arrival clamp as
       a real link, so two same-time self-sends can never be reordered by an
       adversarial tie seed. *)
    t.loopback <- t.loopback + 1;
    Stats.bump t.c_loopback;
    let arrival =
      Time.max (Engine.now t.eng) Time.(t.loop_last.(src) + Time.of_ns 1)
    in
    t.loop_last.(src) <- arrival;
    Engine.at t.eng arrival k
  end
  else begin
    let wire = Driver.wire_bytes cost in
    let kh = t.kinds.(kind_index cost) in
    t.sent <- t.sent + 1;
    t.bytes <- t.bytes + wire;
    Stats.bump kh.k_count;
    Stats.bump t.node_sent.(src);
    Stats.bump_by t.node_bytes.(src) wire;
    let kind_name = kind_names.(kind_index cost) in
    (* A crashed sender's traffic dies on the host; this is checked before
       the loss draw so blackholed messages never consume loss stream
       entropy a later run-with-different-windows would miss. *)
    if Fault_plan.is_down t.plan ~node:src (Engine.now t.eng) then begin
      Fault_plan.note_blackhole t.plan;
      drop t kh (fun () -> Trace.Blackhole { src; dst; kind = kind_name; down = src })
    end
    else if Fault_plan.loses_message t.plan then begin
      Fault_plan.note_loss t.plan;
      drop t kh (fun () -> Trace.Drop { src; dst; kind = kind_name })
    end
    else begin
      let delay = Driver.delay t.net_driver cost in
      let delay =
        match t.jitter with
        | None -> delay
        | Some f ->
            (* Clamp rather than raise: a buggy (or adversarial
               fault-injection) jitter function must never be able to
               schedule a delivery in the past and trip the engine's
               at-in-the-past assertion mid-run. *)
            Time.max (f ~src ~dst delay) Time.zero
      in
      let link = (src * t.nnodes) + dst in
      let arrival =
        Time.max
          Time.(Engine.now t.eng + delay)
          Time.(t.last_delivery.(link) + Time.of_ns 1)
      in
      if Fault_plan.is_down t.plan ~node:dst arrival then begin
        (* Delivered into a down window: the NIC is dead, the message is
           gone.  The link slot is not consumed by a vanished message. *)
        Fault_plan.note_blackhole t.plan;
        drop t kh (fun () -> Trace.Blackhole { src; dst; kind = kind_name; down = dst })
      end
      else begin
        t.last_delivery.(link) <- arrival;
        (* The wire-plus-queueing latency this message actually experiences:
           the tail of these histograms is where link contention shows up. *)
        let latency = Time.(arrival - Engine.now t.eng) in
        Stats.record t.h_delay latency;
        Stats.record kh.k_delay latency;
        Stats.record t.node_delay.(src) latency;
        Engine.at t.eng arrival k
      end
    end
  end
