open Dsmpm2_sim

type config = {
  monitor : bool;
  ring_cap : int option;
  sample_pct : float option;
  sample_seed : int;
  telemetry : bool;
  watchdog : Watchdog.config option;
}

let off =
  {
    monitor = false;
    ring_cap = None;
    sample_pct = None;
    sample_seed = 0;
    telemetry = false;
    watchdog = None;
  }

let attach c rt =
  if c.monitor || c.ring_cap <> None || c.sample_pct <> None || c.telemetry
     || c.watchdog <> None
  then Monitor.enable rt true;
  let tr = Monitor.trace rt in
  Option.iter (Trace.set_capacity tr) c.ring_cap;
  Option.iter
    (fun pct -> Trace.set_sampling tr ~seed:c.sample_seed ~keep_pct:pct)
    c.sample_pct;
  match c.watchdog with
  | Some config -> Some (Watchdog.attach ~config rt)
  | None ->
      if c.telemetry then ignore (Telemetry.attach rt);
      None
