(* Backend 0: the paper's own design behind the pluggable interface.

   The honest step is literally the seed maintenance pair —
   [Vsorter.sweep] then [Vcutter.step] at the governor's budget — so an
   installed vcutter backend is byte-identical to an un-hooked driver
   (the pinned regression in test_gc proves it run-for-run).

   Its backend-relative online invariant is *cut completeness within
   budget*: after a step that cut C segments under budget B, either
   every dead candidate was cut or the budget was exhausted (C = B).
   The post-step recheck below is a pure read over the same zone
   snapshot the step used (deadness against a fixed snapshot is
   stable), so recording the verdict at step time is deterministic.
   The sabotage knob skips every other dead candidate — a collector
   that silently under-delivers on its own budget — which leaves a
   dead survivor with C < B and trips the check. *)

type t = {
  st : State.t;
  sabotage : bool;
  mutable last_budget : int;
  mutable last_cut : int;
  mutable last_dead_after : int;
  mutable shortfalls : int;
}

(* Dead hardened candidates under the *current* zone snapshot. Pure:
   no refresh, no metrics, no trace — safe on the byte-identical path. *)
let dead_candidates st =
  let n = ref 0 in
  Version_store.iter_hardened st.State.store (fun seg ->
      let _, vmin, vmax = Segment.descriptor seg in
      if State.interval_dead st ~lo:vmin ~hi:vmax then incr n);
  !n

let note_step b ~budget ~cut =
  b.last_budget <- budget;
  b.last_cut <- cut;
  b.last_dead_after <- dead_candidates b.st;
  if b.last_dead_after > 0 && cut < budget then b.shortfalls <- b.shortfalls + 1

let honest_step b ~now ~budget =
  let swept = Vsorter.sweep b.st ~now in
  let cut = Vcutter.step b.st ~now ~max_segments:budget in
  note_step b ~budget ~cut:cut.Vcutter.segments_cut;
  (swept, cut)

(* The sabotaged cutter: same discovery, but only every other dead
   candidate is cut (still within budget). *)
let sabotaged_step b ~now ~budget =
  let st = b.st in
  let swept = Vsorter.sweep st ~now in
  State.refresh_zones st ~now;
  let candidates = ref [] and scanned = ref 0 in
  Version_store.iter_hardened st.State.store (fun seg ->
      incr scanned;
      let _, vmin, vmax = Segment.descriptor seg in
      if State.interval_dead st ~lo:vmin ~hi:vmax then candidates := seg :: !candidates);
  let candidates = List.rev !candidates in
  let segs = ref 0 and vers = ref 0 and bytes = ref 0 in
  let rec cut_up_to i n = function
    | [] -> ()
    | _ when n = 0 -> ()
    | seg :: rest ->
        if i mod 2 = 1 then cut_up_to (i + 1) n rest
        else begin
          let v, by, _ = Vcutter.reclaim_segment st seg ~dead:(fun _ -> true) ~now in
          incr segs;
          vers := !vers + v;
          bytes := !bytes + by;
          cut_up_to (i + 1) (n - 1) rest
        end
  in
  cut_up_to 0 budget candidates;
  (match st.State.watchdog with Some w -> Watchdog.beat w "vcutter" ~now | None -> ());
  note_step b ~budget ~cut:!segs;
  ( swept,
    {
      Vcutter.segments_cut = !segs;
      versions_cut = !vers;
      bytes_reclaimed = !bytes;
      segments_scanned = !scanned;
    } )

let hook st ~sabotage =
  let b =
    { st; sabotage; last_budget = 0; last_cut = 0; last_dead_after = 0; shortfalls = 0 }
  in
  {
    State.gh_name = "vcutter";
    gh_id = 0;
    gh_step =
      (fun ~now ~budget ->
        let swept, cut = if b.sabotage then sabotaged_step b ~now ~budget else honest_step b ~now ~budget in
        {
          State.gs_segments_dropped = swept.Vsorter.segments_dropped;
          gs_versions_pruned = swept.Vsorter.versions_pruned;
          gs_segments_flushed = swept.Vsorter.segments_flushed;
          gs_versions_stored = swept.Vsorter.versions_stored;
          gs_segments_cut = cut.Vcutter.segments_cut;
          gs_versions_cut = cut.Vcutter.versions_cut;
          gs_bytes_reclaimed = cut.Vcutter.bytes_reclaimed;
          gs_segments_scanned = cut.Vcutter.segments_scanned;
        });
    gh_frontier = (fun () -> Zone_set.oldest_boundary st.State.zones);
    gh_check =
      (fun () ->
        if b.shortfalls > 0 then
          [
            Printf.sprintf
              "cut completeness: %d step(s) left dead segments resident under budget \
               (last: cut=%d budget=%d dead_after=%d)"
              b.shortfalls b.last_cut b.last_budget b.last_dead_after;
          ]
        else []);
    gh_gauges =
      (fun () ->
        [ ("gc.vcutter.shortfalls", b.shortfalls); ("gc.vcutter.dead_after", b.last_dead_after) ]);
  }
