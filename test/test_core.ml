(* Tests of the generic DSM core: page table, allocation, access detection,
   synchronization objects, protocol registry. *)

open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols

let access = Alcotest.testable Access.pp ( = )

let make ?(nodes = 4) ?(driver = Driver.bip_myrinet) () =
  let dsm = Dsm.create ~nodes ~driver () in
  let ids = Builtin.register_all dsm in
  (dsm, ids)

let run_one dsm ~node f =
  ignore (Dsm.spawn dsm ~node f);
  Dsm.run dsm

(* --- page table --- *)

let test_page_table_declare_find () =
  let t = Page_table.create (Page_table.create_directory ()) ~node:1 in
  let e = Page_table.declare t ~page:7 ~home:0 ~owner:0 ~protocol:3 ~rights:Access.No_access in
  Alcotest.(check int) "page" 7 e.Page_table.page;
  Alcotest.(check bool) "mem" true (Page_table.mem t 7);
  Alcotest.(check bool) "same entry" true (Page_table.find t 7 == e);
  Alcotest.check_raises "unmapped page" (Page_table.Not_mapped 8) (fun () ->
      ignore (Page_table.find t 8));
  Alcotest.check_raises "double declare"
    (Invalid_argument "Page_table.declare: page 7 already mapped") (fun () ->
      ignore (Page_table.declare t ~page:7 ~home:0 ~owner:0 ~protocol:0 ~rights:Access.No_access))

let test_page_table_copyset () =
  let t = Page_table.create (Page_table.create_directory ()) ~node:0 in
  let e = Page_table.declare t ~page:1 ~home:0 ~owner:0 ~protocol:0 ~rights:Access.Read_write in
  Page_table.copyset_add e 3;
  Page_table.copyset_add e 1;
  Page_table.copyset_add e 3;
  Alcotest.(check (list int)) "sorted unique" [ 1; 3 ] e.Page_table.copyset;
  Page_table.copyset_remove e 1;
  Alcotest.(check (list int)) "removed" [ 3 ] e.Page_table.copyset

let test_page_table_entries_sorted () =
  let t = Page_table.create (Page_table.create_directory ()) ~node:0 in
  List.iter
    (fun p -> ignore (Page_table.declare t ~page:p ~home:0 ~owner:0 ~protocol:0 ~rights:Access.No_access))
    [ 5; 1; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5 ]
    (List.map (fun e -> e.Page_table.page) (Page_table.entries t))

(* --- allocation --- *)

let test_malloc_round_robin_homes () =
  let dsm, _ = make () in
  let addr = Dsm.malloc dsm ~home:Dsm.Round_robin (4 * 4096) in
  let pages = Dsm.region_pages dsm ~addr ~size:(4 * 4096) in
  Alcotest.(check int) "four pages" 4 (List.length pages);
  List.iteri
    (fun i page ->
      let e = Runtime.entry dsm ~node:0 ~page in
      Alcotest.(check int) "home round robin" (i mod 4) e.Page_table.home)
    pages

let test_malloc_on_node_rights () =
  let dsm, _ = make () in
  let addr = Dsm.malloc dsm ~home:(Dsm.On_node 2) 8 in
  Alcotest.check access "home gets RW" Access.Read_write (Dsm.unsafe_rights dsm ~node:2 ~addr);
  Alcotest.check access "others get nothing" Access.No_access (Dsm.unsafe_rights dsm ~node:0 ~addr)

let test_malloc_block_homes_monotone () =
  let dsm, _ = make () in
  let size = 10 * 4096 in
  let addr = Dsm.malloc dsm ~home:Dsm.Block size in
  let homes =
    List.map
      (fun page -> (Runtime.entry dsm ~node:0 ~page).Page_table.home)
      (Dsm.region_pages dsm ~addr ~size)
  in
  Alcotest.(check bool) "monotone" true (List.sort compare homes = homes);
  Alcotest.(check int) "starts at node 0" 0 (List.hd homes);
  Alcotest.(check int) "ends at last node" 3 (List.nth homes 9)

let test_malloc_regions_never_share_pages () =
  let dsm, _ = make () in
  let a = Dsm.malloc dsm 100 in
  let b = Dsm.malloc dsm 100 in
  let pa = Dsm.region_pages dsm ~addr:a ~size:100 in
  let pb = Dsm.region_pages dsm ~addr:b ~size:100 in
  List.iter (fun p -> Alcotest.(check bool) "disjoint" false (List.mem p pb)) pa

let test_malloc_rejects_bad_input () =
  let dsm, _ = make () in
  Alcotest.check_raises "size positive" (Invalid_argument "Dsm.malloc: size must be positive")
    (fun () -> ignore (Dsm.malloc dsm 0));
  Alcotest.check_raises "home in range"
    (Invalid_argument "Dsm.malloc: home node out of range") (fun () ->
      ignore (Dsm.malloc dsm ~home:(Dsm.On_node 9) 8))

let test_unmapped_access_fails () =
  let dsm, _ = make () in
  let failed = ref false in
  run_one dsm ~node:0 (fun () ->
      try ignore (Dsm.read_int dsm 123456888) with
      | Page_table.Not_mapped _ -> failed := true);
  Alcotest.(check bool) "segfault equivalent" true !failed

(* --- sparse page tables --- *)

let entry_count dsm =
  List.fold_left ( + ) 0
    (List.init (Dsm.nodes dsm) (fun node ->
         List.length (Page_table.entries (Runtime.table dsm node))))

let test_malloc_declares_homes_only () =
  let dsm, _ = make ~nodes:8 () in
  let pages = 16 in
  let addr = Dsm.malloc dsm (pages * 4096) in
  Alcotest.(check int) "one entry per page, not pages x nodes" pages (entry_count dsm);
  List.iteri
    (fun i page ->
      Alcotest.(check bool) "the home's entry" true
        (Page_table.mem (Runtime.table dsm (i mod 8)) page))
    (Dsm.region_pages dsm ~addr ~size:(pages * 4096))

let test_lazy_entry_matches_declare () =
  let dsm, ids = make () in
  let addr = Dsm.malloc dsm ~protocol:ids.Builtin.hbrc_mw ~home:(Dsm.On_node 2) 8 in
  let page = List.hd (Dsm.region_pages dsm ~addr ~size:8) in
  Alcotest.(check bool) "untouched" false (Page_table.mem (Runtime.table dsm 1) page);
  let created = Runtime.entry dsm ~node:1 ~page in
  let declared =
    Page_table.declare
      (Page_table.create (Page_table.create_directory ()) ~node:1)
      ~page ~home:2 ~owner:2 ~protocol:ids.Builtin.hbrc_mw ~rights:Access.No_access
  in
  let state (e : Page_table.entry) =
    ( (e.page, e.rights, e.prob_owner, e.home, e.copyset, e.protocol),
      (e.faulting, e.pinned, e.twin, e.ext = Page_table.No_ext) )
  in
  Alcotest.(check bool) "same state as an eager declare" true
    (state created = state declared);
  Alcotest.(check bool) "created once" true (Runtime.entry dsm ~node:1 ~page == created);
  Alcotest.(check int) "home plus the touched node" 2 (entry_count dsm)

let test_unmapped_page_creates_nothing () =
  let dsm, _ = make () in
  let addr = Dsm.malloc dsm 4096 in
  let outside = List.hd (Dsm.region_pages dsm ~addr ~size:8) + 1 in
  Alcotest.check_raises "entry" (Page_table.Not_mapped outside) (fun () ->
      ignore (Runtime.entry dsm ~node:1 ~page:outside));
  Alcotest.check_raises "home" (Page_table.Not_mapped outside) (fun () ->
      ignore (Runtime.home dsm outside));
  Alcotest.check_raises "rights" (Page_table.Not_mapped outside) (fun () ->
      ignore (Dsm.unsafe_rights dsm ~node:1 ~addr:(addr + 4096)));
  Alcotest.check access "untouched node, no rights" Access.No_access
    (Dsm.unsafe_rights dsm ~node:1 ~addr);
  Alcotest.(check int) "only the home's entry" 1 (entry_count dsm)

(* Node 1 takes a read copy of page 0 and ownership of page 2 under
   li_hudak; the switch to hbrc_mw must leave every node, touched or not,
   in the post-allocation state, as the eager tables did. *)
let test_switch_protocol_untouched_nodes () =
  let dsm, ids = make () in
  let size = 4 * 4096 in
  let addr = Dsm.malloc dsm ~home:Dsm.Round_robin size in
  run_one dsm ~node:1 (fun () ->
      ignore (Dsm.read_int dsm addr);
      Dsm.write_int dsm (addr + (2 * 4096)) 77);
  let entries = entry_count dsm in
  Dsm.switch_protocol dsm ~addr ~size ~protocol:ids.Builtin.hbrc_mw;
  Alcotest.(check int) "the switch creates no entries" entries (entry_count dsm);
  List.iteri
    (fun home page ->
      Alcotest.(check int) "directory protocol" ids.Builtin.hbrc_mw
        (Page_table.protocol_of dsm.Runtime.directory page);
      for node = 0 to 3 do
        let e = Runtime.entry dsm ~node ~page in
        let what = Printf.sprintf "page %d node %d" home node in
        Alcotest.(check int) (what ^ " protocol") ids.Builtin.hbrc_mw e.Page_table.protocol;
        Alcotest.(check int) (what ^ " owner") home e.Page_table.prob_owner;
        Alcotest.(check (list int)) (what ^ " copyset") [] e.Page_table.copyset;
        Alcotest.check access (what ^ " rights")
          (if node = home then Access.Read_write else Access.No_access)
          e.Page_table.rights;
        if node <> home then
          Alcotest.(check bool) (what ^ " replica dropped") false
            (Frame_store.has_frame (Runtime.store dsm node) page)
      done)
    (Dsm.region_pages dsm ~addr ~size);
  Alcotest.(check int) "consolidated on the home" 77
    (Dsm.unsafe_peek dsm ~node:2 (addr + (2 * 4096)))

(* Node 4 is down while node 0 writes, so its replica of the sc_abd page is
   first created after the write, as the zero frame under tag (1, home).
   Its read must still return the write, collected from a majority. *)
let test_sc_abd_late_replica_reads_quorum () =
  let dsm, _ = make ~nodes:5 () in
  let sc_abd = (Builtin.register_extras dsm).Builtin.sc_abd in
  let x = Dsm.malloc dsm ~protocol:sc_abd ~home:(Dsm.On_node 0) 8 in
  let page = List.hd (Dsm.region_pages dsm ~addr:x ~size:8) in
  Dsm.inject_faults dsm
    (Dsmpm2_sim.Fault_plan.create
       ~windows:
         [ { Dsmpm2_sim.Fault_plan.w_node = 4; w_down = Time.zero; w_up = Time.of_us 100_000. } ]
       ());
  run_one dsm ~node:0 (fun () -> Dsm.write_int dsm x 42);
  Alcotest.(check bool) "replica 4 not created by the write" false
    (Page_table.mem (Runtime.table dsm 4) page);
  let got = ref 0 in
  run_one dsm ~node:4 (fun () -> got := Dsm.read_int dsm x);
  Alcotest.(check int) "late replica reads the write" 42 !got;
  Alcotest.(check int) "and now holds it" 42 (Dsm.unsafe_peek dsm ~node:4 x)

let test_observers_create_no_entries () =
  let dsm, _ = make () in
  let w = Watchdog.attach dsm in
  let size = 8 * 4096 in
  let addr = Dsm.malloc dsm ~home:Dsm.Round_robin size in
  run_one dsm ~node:0 (fun () ->
      for i = 0 to 3 do
        ignore (Dsm.read_int dsm (addr + (i * 4096)));
        Dsm.compute dsm 500.
      done);
  (* the 8 homes, plus node 0's copies of pages 1-3 *)
  Alcotest.(check int) "entries" 11 (entry_count dsm);
  Alcotest.(check bool) "audited" true (Watchdog.pages_audited w > 0);
  Alcotest.(check (list string)) "no alerts" []
    (List.filter_map
       (fun a ->
         if a.Watchdog.al_severity = Watchdog.Info then None else Some a.Watchdog.al_kind)
       (Watchdog.alerts w));
  ignore (Dsm.unsafe_rights dsm ~node:3 ~addr);
  Alcotest.(check int) "entries after the observers" 11 (entry_count dsm)

(* --- access detection --- *)

let test_local_access_costs_nothing () =
  let dsm, _ = make () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 8 in
  let took = ref 1. in
  run_one dsm ~node:0 (fun () ->
      let t0 = Dsm.now_us dsm in
      Dsm.write_int dsm x 5;
      ignore (Dsm.read_int dsm x);
      took := Dsm.now_us dsm -. t0);
  Alcotest.(check (float 0.001)) "free" 0. !took;
  Alcotest.(check int) "no faults" 0 (Stats.count (Dsm.stats dsm) Instrument.read_faults)

let test_remote_read_costs_paper_total () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  let took = ref 0. in
  run_one dsm ~node:0 (fun () ->
      let t0 = Dsm.now_us dsm in
      ignore (Dsm.read_int dsm x);
      took := Dsm.now_us dsm -. t0);
  (* Table 3, BIP/Myrinet column: 198 us *)
  Alcotest.(check (float 0.5)) "198us" 198. !took

let test_fault_counters () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () ->
      ignore (Dsm.read_int dsm x);
      Dsm.write_int dsm x 1;
      ignore (Dsm.read_int dsm x));
  let stats = Dsm.stats dsm in
  Alcotest.(check int) "one read fault" 1 (Stats.count stats Instrument.read_faults);
  Alcotest.(check int) "one write fault" 1 (Stats.count stats Instrument.write_faults)

let test_byte_accessors () =
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 0) 16 in
  run_one dsm ~node:0 (fun () ->
      Dsm.write_byte dsm (x + 3) 200;
      Alcotest.(check int) "byte round trip" 200 (Dsm.read_byte dsm (x + 3)))

(* --- locks --- *)

let test_lock_mutual_exclusion () =
  let dsm, _ = make () in
  let lock = Dsm.lock_create dsm () in
  let inside = ref 0 and max_inside = ref 0 in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 3 do
              Dsm.with_lock dsm lock (fun () ->
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Dsm.compute dsm 50.;
                  decr inside)
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check int) "12 grants" 12 (Dsm_sync.lock_acquisitions dsm lock)

let test_lock_release_by_other_thread_fails () =
  (* The manager rejects the bad release over the RPC reply: the offending
     thread gets Lock_error in its own fiber, the holder is undisturbed, and
     the rest of the cluster keeps running. *)
  let dsm, _ = make ~nodes:3 () in
  let lock = Dsm.lock_create dsm () in
  let caught = ref None in
  let holder_released = ref false and bystander_done = ref false in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         Dsm.lock_acquire dsm lock;
         Dsm.compute dsm 5_000.;
         Dsm.lock_release dsm lock;
         holder_released := true));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.compute dsm 1_000.;
         try Dsm.lock_release dsm lock
         with Dsm_sync.Lock_error msg -> caught := Some msg));
  ignore
    (Dsm.spawn dsm ~node:2 (fun () ->
         Dsm.compute dsm 2_000.;
         (* Queues behind the holder and still gets the lock afterwards. *)
         Dsm.with_lock dsm lock (fun () -> ());
         bystander_done := true));
  Dsm.run dsm;
  (match !caught with
  | Some msg ->
      Alcotest.(check bool) "names the real holder" true
        (String.length msg > 0
        && String.sub msg 0 8 = "DSM lock")
  | None -> Alcotest.fail "bad release was not rejected");
  Alcotest.(check bool) "holder released normally" true !holder_released;
  Alcotest.(check bool) "other nodes keep running" true !bystander_done;
  Alcotest.(check int) "both legitimate grants happened" 2
    (Dsm_sync.lock_acquisitions dsm lock)

let test_lock_release_while_free_fails () =
  let dsm, _ = make ~nodes:2 () in
  let lock = Dsm.lock_create dsm () in
  let caught = ref false and other_ran = ref false in
  ignore
    (Dsm.spawn dsm ~node:0 (fun () ->
         try Dsm.lock_release dsm lock
         with Dsm_sync.Lock_error _ -> caught := true));
  ignore
    (Dsm.spawn dsm ~node:1 (fun () ->
         Dsm.compute dsm 2_000.;
         Dsm.with_lock dsm lock (fun () -> ());
         other_ran := true));
  Dsm.run dsm;
  Alcotest.(check bool) "release-while-free rejected" true !caught;
  Alcotest.(check bool) "simulation survives" true !other_ran

let test_lock_survives_migration () =
  (* A thread acquires on one node, migrates, and releases from another. *)
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.migrate_thread ~home:(Dsm.On_node 3) 8 in
  let lock = Dsm.lock_create dsm () in
  run_one dsm ~node:0 (fun () ->
      Dsm.lock_acquire dsm lock;
      Dsm.write_int dsm x 1;
      (* now on node 3 *)
      Alcotest.(check int) "migrated" 3 (Dsm.self_node dsm);
      Dsm.lock_release dsm lock)

(* --- barriers --- *)

let test_barrier_gathers_all () =
  let dsm, _ = make () in
  let barrier = Dsm.barrier_create dsm ~parties:4 () in
  let after = Array.make 4 0. in
  let threads =
    List.init 4 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            Dsm.compute dsm (float_of_int (100 * (node + 1)));
            Dsm.barrier_wait dsm barrier;
            after.(node) <- Dsm.now_us dsm))
  in
  Dsm.run dsm;
  ignore threads;
  (* Nobody passes before the slowest (400us) arrives. *)
  Array.iter (fun t -> Alcotest.(check bool) "gated by slowest" true (t >= 400.)) after

let test_barrier_reusable_across_generations () =
  let dsm, _ = make ~nodes:2 () in
  let barrier = Dsm.barrier_create dsm ~parties:2 () in
  let rounds = Array.make 2 0 in
  let threads =
    List.init 2 (fun node ->
        Dsm.spawn dsm ~node (fun () ->
            for _ = 1 to 5 do
              Dsm.barrier_wait dsm barrier;
              rounds.(node) <- rounds.(node) + 1
            done))
  in
  Dsm.run dsm;
  ignore threads;
  Alcotest.(check (list int)) "five rounds each" [ 5; 5 ] (Array.to_list rounds)

let test_barrier_rejects_zero_parties () =
  let dsm, _ = make () in
  Alcotest.check_raises "parties > 0"
    (Invalid_argument "Dsm_sync.barrier_create: parties must be positive") (fun () ->
      ignore (Dsm.barrier_create dsm ~parties:0 ()))

(* --- protocol registry --- *)

let test_registry_lookup () =
  let dsm, ids = make () in
  Alcotest.(check (option int)) "by name" (Some ids.Builtin.hbrc_mw)
    (Dsm.protocol_by_name dsm "hbrc_mw");
  Alcotest.(check (option int)) "unknown" None (Dsm.protocol_by_name dsm "nope");
  Alcotest.(check string) "name" "java_pf" (Dsm.protocol_name dsm ids.Builtin.java_pf);
  Alcotest.(check int) "li_hudak is the default" ids.Builtin.li_hudak
    (Dsm.default_protocol dsm)

let test_registry_user_protocol () =
  let dsm, ids = make () in
  let clone = { Li_hudak.protocol with Protocol.name = "my_proto" } in
  let id = Dsm.create_protocol dsm clone in
  Alcotest.(check bool) "new id" true (id <> ids.Builtin.li_hudak);
  Dsm.set_default_protocol dsm id;
  Alcotest.(check int) "default switched" id (Dsm.default_protocol dsm);
  (* the user protocol actually drives memory *)
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () ->
      Dsm.write_int dsm x 5;
      Alcotest.(check int) "works" 5 (Dsm.read_int dsm x))

let test_set_default_validates () =
  let dsm, _ = make () in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Protocol.find: unknown protocol id 99") (fun () ->
      Dsm.set_default_protocol dsm 99)

(* --- different protocols per lock --- *)

let test_lock_protocol_hooks_fire () =
  let dsm, _ = make ~nodes:2 () in
  let acquires = ref 0 and releases = ref 0 in
  let spy =
    {
      Li_hudak.protocol with
      Protocol.name = "spy";
      lock_acquire = (fun _ ~node:_ ~lock:_ -> incr acquires);
      lock_release = (fun _ ~node:_ ~lock:_ -> incr releases);
    }
  in
  let id = Dsm.create_protocol dsm spy in
  let lock = Dsm.lock_create dsm ~protocol:id () in
  let barrier = Dsm.barrier_create dsm ~protocol:id ~parties:1 () in
  run_one dsm ~node:0 (fun () ->
      Dsm.with_lock dsm lock (fun () -> ());
      Dsm.barrier_wait dsm barrier);
  Alcotest.(check int) "acquire hooks (lock + barrier)" 2 !acquires;
  Alcotest.(check int) "release hooks (lock + barrier)" 2 !releases

(* --- cost model and diagnostics --- *)

let test_custom_costs () =
  (* Doubling the fault cost must show up in the measured total. *)
  let costs = { Runtime.default_costs with Runtime.page_fault_us = 22. } in
  let dsm = Dsm.create ~costs ~nodes:2 ~driver:Driver.bip_myrinet () in
  ignore (Builtin.register_all dsm);
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  let took = ref 0. in
  run_one dsm ~node:0 (fun () ->
      let t0 = Dsm.now_us dsm in
      ignore (Dsm.read_int dsm x);
      took := Dsm.now_us dsm -. t0);
  Alcotest.(check (float 0.5)) "11us extra fault cost" 209. !took

let test_fault_storm_guard () =
  let dsm, _ = make ~nodes:2 () in
  (* A protocol whose fault handler never grants anything must be caught by
     the retry guard rather than looping forever. *)
  let broken =
    {
      Li_hudak.protocol with
      Protocol.name = "broken";
      read_fault = (fun _rt ~node:_ ~page:_ -> ());
    }
  in
  let id = Dsm.create_protocol dsm broken in
  let x = Dsm.malloc dsm ~protocol:id ~home:(Dsm.On_node 1) 8 in
  (dsm : Dsm.t).Runtime.fault_loop_limit <- 5;
  let stormed = ref false in
  run_one dsm ~node:0 (fun () ->
      try ignore (Dsm.read_int dsm x)
      with Dsm.Fault_storm { attempts; _ } ->
        stormed := true;
        Alcotest.(check int) "caught at the limit" 6 attempts);
  Alcotest.(check bool) "storm detected" true !stormed

let test_ensure_access_public_path () =
  (* The compiler-target entry point: after ensure_access, the access is
     local and free. *)
  let dsm, _ = make ~nodes:2 () in
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () ->
      Dsm.ensure_access dsm ~addr:x ~mode:Access.Read;
      let t0 = Dsm.now_us dsm in
      ignore (Dsm.read_int dsm x);
      Alcotest.(check (float 0.001)) "read after ensure is free" 0.
        (Dsm.now_us dsm -. t0))

(* Minor words per call of [f], over [n] calls. *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. w0) /. float n)

(* A hit on the home node, with history off, allocates nothing: one
   page-table probe, cached (page -> entry) and (fiber -> thread) lookups,
   no closure and no history record. *)
let test_hit_path_allocates_nothing () =
  let dsm, ids = make () in
  List.iter
    (fun (name, protocol) ->
      let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 4096 in
      run_one dsm ~node:0 (fun () ->
          Dsm.write_int dsm x 1;
          ignore (Dsm.read_int dsm x);
          Alcotest.(check int) (name ^ " read hit") 0
            (words_per_call 1000 (fun () -> ignore (Dsm.read_int dsm x)));
          Alcotest.(check int) (name ^ " write hit") 0
            (words_per_call 1000 (fun () -> Dsm.write_int dsm (x + 8) 2))))
    [
      ("li_hudak", ids.Builtin.li_hudak);
      ("hbrc_mw", ids.Builtin.hbrc_mw);
      ("java_pf", ids.Builtin.java_pf);
      ("java_ic", ids.Builtin.java_ic);
    ]

(* The (fiber -> thread) cache holds the thread, not its node: after
   migrate_thread moves the thread, self_node and the access path follow. *)
let test_self_node_follows_migration () =
  let dsm, ids = make () in
  let x = Dsm.malloc dsm ~protocol:ids.Builtin.migrate_thread ~home:(Dsm.On_node 2) 8 in
  let seen = ref [] in
  run_one dsm ~node:0 (fun () ->
      let before = Dsm.self_node dsm in
      Dsm.write_int dsm x 5;
      seen := [ before; Dsm.self_node dsm; Dsm.read_int dsm x ]);
  Alcotest.(check (list int)) "node 0, then node 2, reading its write" [ 0; 2; 5 ] !seen;
  Alcotest.(check int) "written on node 2" 5 (Dsm.unsafe_peek dsm ~node:2 x)

let test_lock_manager_placement () =
  let dsm, _ = make () in
  let l0 = Dsm.lock_create dsm () in
  let l1 = Dsm.lock_create dsm () in
  Alcotest.(check int) "round robin managers" 0 (Runtime.lock_state dsm l0).Runtime.lock_manager;
  Alcotest.(check int) "second lock on node 1" 1 (Runtime.lock_state dsm l1).Runtime.lock_manager;
  let l9 = Dsm.lock_create dsm ~manager:3 () in
  Alcotest.(check int) "explicit manager" 3 (Runtime.lock_state dsm l9).Runtime.lock_manager

let test_monitor_summary_counts () =
  let dsm, _ = make ~nodes:2 () in
  Monitor.enable dsm true;
  let x = Dsm.malloc dsm ~home:(Dsm.On_node 1) 8 in
  run_one dsm ~node:0 (fun () -> ignore (Dsm.read_int dsm x));
  let faults =
    List.find (fun l -> l.Monitor.category = "fault") (Monitor.summary dsm)
  in
  Alcotest.(check int) "one fault event" 1 faults.Monitor.events

let () =
  Alcotest.run "core"
    [
      ( "page_table",
        [
          Alcotest.test_case "declare/find" `Quick test_page_table_declare_find;
          Alcotest.test_case "copyset" `Quick test_page_table_copyset;
          Alcotest.test_case "entries sorted" `Quick test_page_table_entries_sorted;
        ] );
      ( "malloc",
        [
          Alcotest.test_case "round robin homes" `Quick test_malloc_round_robin_homes;
          Alcotest.test_case "on-node rights" `Quick test_malloc_on_node_rights;
          Alcotest.test_case "block homes" `Quick test_malloc_block_homes_monotone;
          Alcotest.test_case "regions never share pages" `Quick
            test_malloc_regions_never_share_pages;
          Alcotest.test_case "input validation" `Quick test_malloc_rejects_bad_input;
          Alcotest.test_case "unmapped access" `Quick test_unmapped_access_fails;
        ] );
      ( "sparse tables",
        [
          Alcotest.test_case "malloc declares homes only" `Quick
            test_malloc_declares_homes_only;
          Alcotest.test_case "lazy entry = eager declare" `Quick
            test_lazy_entry_matches_declare;
          Alcotest.test_case "unmapped page creates nothing" `Quick
            test_unmapped_page_creates_nothing;
          Alcotest.test_case "switch over untouched nodes" `Quick
            test_switch_protocol_untouched_nodes;
          Alcotest.test_case "sc_abd late replica" `Quick
            test_sc_abd_late_replica_reads_quorum;
          Alcotest.test_case "observers create no entries" `Quick
            test_observers_create_no_entries;
        ] );
      ( "access",
        [
          Alcotest.test_case "local access free" `Quick test_local_access_costs_nothing;
          Alcotest.test_case "remote read = Table 3 total" `Quick
            test_remote_read_costs_paper_total;
          Alcotest.test_case "fault counters" `Quick test_fault_counters;
          Alcotest.test_case "byte accessors" `Quick test_byte_accessors;
          Alcotest.test_case "hit path allocates nothing" `Quick
            test_hit_path_allocates_nothing;
          Alcotest.test_case "self_node follows migration" `Quick
            test_self_node_follows_migration;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "foreign release detected" `Quick
            test_lock_release_by_other_thread_fails;
          Alcotest.test_case "release while free detected" `Quick
            test_lock_release_while_free_fails;
          Alcotest.test_case "survives migration" `Quick test_lock_survives_migration;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "gathers all parties" `Quick test_barrier_gathers_all;
          Alcotest.test_case "reusable" `Quick test_barrier_reusable_across_generations;
          Alcotest.test_case "zero parties rejected" `Quick test_barrier_rejects_zero_parties;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "user protocol" `Quick test_registry_user_protocol;
          Alcotest.test_case "set default validates" `Quick test_set_default_validates;
          Alcotest.test_case "lock hooks fire" `Quick test_lock_protocol_hooks_fire;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "custom cost model" `Quick test_custom_costs;
          Alcotest.test_case "fault-storm guard" `Quick test_fault_storm_guard;
          Alcotest.test_case "public ensure_access" `Quick test_ensure_access_public_path;
          Alcotest.test_case "lock manager placement" `Quick test_lock_manager_placement;
          Alcotest.test_case "monitor summary counts" `Quick test_monitor_summary_counts;
        ] );
    ]
