open Dsmpm2_apps

type cell = { kernel : string; protocol : string; outcome : Catalog.outcome }

let protocols = [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ]

(* Each kernel at its default size, on 4 nodes over BIP/Myrinet. *)
let run () =
  let nodes = 4 in
  List.concat_map
    (fun protocol ->
      List.map
        (fun kernel ->
          let e = Option.get (Catalog.find kernel) in
          let params = Result.get_ok (Catalog.resolve e ~nodes []) in
          let outcome =
            e.run ~nodes ~driver:Dsmpm2_net.Driver.bip_myrinet ~protocol ~seed:None
              ~observe:None params
          in
          { kernel; protocol; outcome })
        [ "jacobi"; "matmul"; "lu"; "sort" ])
    protocols

let print ppf cells =
  Format.fprintf ppf
    "SPLASH-style kernels (48x48 Jacobi, 8 sweeps; 32x32 matmul; 32x32 LU; \
     256-element sort), 4 nodes, BIP/Myrinet@.";
  Format.fprintf ppf "%-8s %-16s %10s %8s %8s %8s %8s %10s@." "Kernel" "Protocol"
    "time(ms)" "correct" "rfaults" "wfaults" "pages" "diffbytes";
  List.iter
    (fun { kernel; protocol; outcome = o } ->
      Format.fprintf ppf "%-8s %-16s %10.1f %8b %8d %8d %8d %10d@." kernel protocol
        o.time_ms (Lazy.force o.correct) o.read_faults o.write_faults o.pages o.diff_bytes)
    cells

let to_json cells =
  let open Dsmpm2_sim in
  Json.List
    (List.map
       (fun { kernel; protocol; outcome = o } ->
         Json.Obj
           [
             ("kernel", Json.String kernel);
             ("protocol", Json.String protocol);
             ("time_ms", Json.Float o.time_ms);
             ("correct", Json.Bool (Lazy.force o.correct));
             ("read_faults", Json.Int o.read_faults);
             ("write_faults", Json.Int o.write_faults);
             ("pages", Json.Int o.pages);
             ("diff_bytes", Json.Int o.diff_bytes);
           ])
       cells)
