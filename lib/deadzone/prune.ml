let dead_spec ~live ~vs ~ve =
  if vs >= ve then invalid_arg "Prune.dead_spec: requires vs < ve";
  not (List.exists (fun tb -> vs < tb && tb < ve) live)

let snapshot_read_of_view view ~vs ~ve = Read_view.snapshot_read view ~vs ~ve

let prunable_by_views ~views ~vs ~ve =
  not (List.exists (fun view -> snapshot_read_of_view view ~vs ~ve) views)

let commit_interval log ~vs ~ve =
  if ve = Timestamp.infinity then None
  else
    let cs = if vs = 0 then 0 else Commit_log.commit_ts log vs in
    let ce = if ve = 0 then 0 else Commit_log.commit_ts log ve in
    if cs = Timestamp.infinity || ce = Timestamp.infinity then None else Some (cs, ce)

let prunable_fast zones ~commit_log ~vs ~ve =
  match commit_interval commit_log ~vs ~ve with
  | Some (cs, ce) -> Zone_set.prunable zones ~vs:cs ~ve:ce
  | None -> false
