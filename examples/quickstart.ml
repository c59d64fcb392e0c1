(* Quickstart: drive vDriver's public API by hand.

   We build a transaction manager and a vDriver instance, update a SIRO
   record slot a few times, and watch what the paper's machinery does:
   dead-zone pruning kills versions nobody can see, an LLT pins exactly
   its snapshot, and vCutter reclaims the space the moment the LLT
   commits.

   Run with: dune exec examples/quickstart.exe *)

let ms = Clock.ms

let () =
  print_endline "== vDriver quickstart ==\n";
  let mgr = Txn_manager.create () in
  let config =
    {
      State.default_config with
      State.segment_bytes = 384 (* 3 versions of 128 bytes *);
      vbuffer_bytes = 256 (* tiny: sealed segments flush immediately *);
      zone_refresh_period = 0 (* always-fresh dead zones for the demo *);
      classifier = Classifier.create ~delta_hot:(ms 5) ~delta_llt:(ms 10) ();
    }
  in
  let driver = Driver.create ~config mgr in
  let slots = Array.init 4 (fun rid -> Siro.create ~rid ~bytes:128 ~payload:0 ~vs:0 ~vs_time:0) in


  (* A helper that runs one committed update through SIRO-versioning,
     handing any displaced version to vSorter with the commit interval
     the slot stamped, and stamping the new version at commit. *)
  let update_rid ~rid ~now ~payload =
    let slot = slots.(rid) in
    let txn = Txn_manager.begin_txn mgr ~now in
    (match Siro.update slot ~vs:txn.Txn.tid ~vs_time:now ~payload ~bytes:128 with
    | Siro.Relocated { version = v; lo; hi } -> (
        match Driver.relocate driver v ~lo ~hi ~now with
        | Vsorter.Pruned_first cls ->
            Format.printf "  update %d: displaced %a -> dead on arrival (1st prune, %a)@."
              payload Version.pp v Vclass.pp cls
        | Vsorter.Buffered cls ->
            Format.printf "  update %d: displaced %a -> buffered in VC_%a@." payload Version.pp
              v Vclass.pp cls)
    | Siro.Kept -> Format.printf "  update %d: in-row placeholder absorbed the old version@." payload);
    Txn_manager.commit mgr txn ~now:(now + Clock.us 50);
    Siro.stamp slot ~tid:txn.Txn.tid ~cts:(Option.get txn.Txn.commit_ts)
  in
  let update ~now ~payload = update_rid ~rid:0 ~now ~payload in

  print_endline "1. Updates with no concurrent readers: every displaced version";
  print_endline "   falls inside the [-inf, C^T] dead zone and is pruned at once.";
  for i = 1 to 4 do
    update ~now:(ms i) ~payload:i
  done;
  Format.printf "   version space used: %d bytes, longest chain: %d@.@."
    (Driver.space_bytes driver)
    (Driver.max_chain_length driver);

  print_endline "2. A long-lived transaction begins; updates continue on all";
  print_endline "   records, so each record's version spanning the LLT's snapshot";
  print_endline "   is pinned and classified into VC_llt.";
  let llt = Txn_manager.begin_txn mgr ~now:(ms 5) in
  for i = 5 to 9 do
    for rid = 0 to 3 do
      update_rid ~rid ~now:(ms ((i * 4) + rid)) ~payload:i
    done
  done;
  (* The sealed VC_llt segment exceeds the tiny vBuffer budget and is
     hardened into the version store by the sweep. *)
  let swept = Driver.sweep driver ~now:(ms 38) in
  Format.printf "   sweep: %d segment(s) hardened to the version store@."
    swept.Vsorter.segments_flushed;
  Format.printf "   the LLT pinned its snapshot; space: %d bytes, chain: %d@."
    (Driver.space_bytes driver)
    (Driver.max_chain_length driver);
  (match Driver.read driver llt.Txn.view ~rid:0 with
  | Some (v, _, hops) ->
      Format.printf "   the LLT still reads its snapshot %a (payload %d, %d hops)@.@." Version.pp
        v v.Version.payload hops
  | None -> failwith "representation invariant violated!");

  print_endline "3. The LLT commits; vCutter's next pass reclaims everything.";
  Txn_manager.commit mgr llt ~now:(ms 40);
  ignore (Driver.flush_all driver ~now:(ms 41));
  let r = Driver.vcutter_step driver ~now:(ms 42) ~max_segments:16 in
  Format.printf "   vCutter cut %d segment(s), %d version(s), %d bytes@." r.Vcutter.segments_cut
    r.Vcutter.versions_cut r.Vcutter.bytes_reclaimed;
  Format.printf "   version space used: %d bytes, longest chain: %d@.@."
    (Driver.space_bytes driver)
    (Driver.max_chain_length driver);

  Format.printf "Pruning breakdown:@.%a@." Prune_stats.pp (Driver.stats driver)
