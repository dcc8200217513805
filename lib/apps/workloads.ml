let tsp_expand_us = 1.0
let coloring_expand_us = 0.5
let jacobi_point_us = 0.2
let matmul_inner_us = 0.05

let charge_batched dsm unit_us n =
  if n > 0 then Dsmpm2_core.Dsm.charge dsm (unit_us *. float_of_int n)

let runtime ~app ?tie_seed ~nodes ~driver ~observe protocol =
  let dsm = Dsmpm2_core.Dsm.create ?tie_seed ~nodes ~driver () in
  ignore (Dsmpm2_protocols.Builtin.register_all dsm);
  ignore (Dsmpm2_protocols.Builtin.register_extras dsm);
  Option.iter (fun f -> f dsm) observe;
  match Dsmpm2_core.Dsm.protocol_by_name dsm protocol with
  | Some p -> (dsm, p)
  | None -> invalid_arg (Printf.sprintf "%s.run: unknown protocol %s" app protocol)

let idle_rows ~nodes ~size =
  if nodes > size then
    Some (Printf.sprintf "%d nodes over %d rows leave nodes without rows" nodes size)
  else None

let require_rows ~app ~nodes ~size =
  Option.iter (fun why -> invalid_arg (app ^ ".run: " ^ why)) (idle_rows ~nodes ~size)
