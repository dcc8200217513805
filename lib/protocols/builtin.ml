open Dsmpm2_core

type ids = {
  li_hudak : int;
  migrate_thread : int;
  erc_sw : int;
  hbrc_mw : int;
  java_ic : int;
  java_pf : int;
}

let register_all dsm =
  let li_hudak = Dsm.create_protocol dsm Li_hudak.protocol in
  let migrate_thread = Dsm.create_protocol dsm Migrate_thread.protocol in
  let erc_sw = Dsm.create_protocol dsm Erc_sw.protocol in
  let hbrc_mw = Dsm.create_protocol dsm Hbrc_mw.protocol in
  let java_ic = Dsm.create_protocol dsm Java_ic.protocol in
  let java_pf = Dsm.create_protocol dsm Java_pf.protocol in
  Hbrc_mw.register_diff_handler dsm ~protocol:hbrc_mw;
  Dsm.set_default_protocol dsm li_hudak;
  { li_hudak; migrate_thread; erc_sw; hbrc_mw; java_ic; java_pf }

let summary =
  [
    ( "li_hudak",
      "Sequential",
      "MRSW protocol. Page replication on read access, page migration on \
       write access. Dynamic distributed manager." );
    ( "migrate_thread",
      "Sequential",
      "Uses thread migration on both read and write faults. Fixed \
       distributed manager." );
    ( "erc_sw",
      "Release",
      "MRSW protocol implementing eager release consistency. Dynamic \
       distributed manager." );
    ( "hbrc_mw",
      "Release",
      "MRMW protocol implementing home-based lazy release consistency. \
       Fixed distributed manager. Uses twins and on-release diffing." );
    ( "java_ic",
      "Java",
      "Home-based MRMW protocol, based on explicit inline checks (ic) for \
       locality. Fixed distributed manager. Uses on-the-fly diff recording." );
    ( "java_pf",
      "Java",
      "Home-based MRMW protocol, based on page faults (pf). Fixed \
       distributed manager. Uses on-the-fly diff recording." );
  ]

type extra_ids = {
  li_hudak_fixed : int;
  hybrid_rw : int;
  entry_ec : int;
  write_update : int;
  sc_abd : int;
}

let register_extras dsm =
  {
    li_hudak_fixed = Dsm.create_protocol dsm Li_hudak_fixed.protocol;
    hybrid_rw = Dsm.create_protocol dsm Hybrid_rw.protocol;
    entry_ec = Dsm.create_protocol dsm Entry_ec.protocol;
    write_update = Dsm.create_protocol dsm Write_update.protocol;
    sc_abd = Sc_abd.register dsm;
  }

let names =
  List.map
    (fun (p : Runtime.t Protocol.t) -> p.Protocol.name)
    [
      Li_hudak.protocol; Migrate_thread.protocol; Erc_sw.protocol; Hbrc_mw.protocol;
      Java_ic.protocol; Java_pf.protocol; Li_hudak_fixed.protocol; Hybrid_rw.protocol;
      Entry_ec.protocol; Write_update.protocol; Sc_abd.protocol;
    ]
