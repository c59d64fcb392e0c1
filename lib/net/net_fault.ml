type partition = {
  p_name : string;
  isolated : int list;
  from_t : Clock.time;
  heal_t : Clock.time;
}

type config = {
  seed : int;
  loss : float;
  dup : float;
  min_delay : Clock.time;
  max_delay : Clock.time;
  partitions : partition list;
}

let none = { seed = 0; loss = 0.; dup = 0.; min_delay = 0; max_delay = 0; partitions = [] }

let is_none c =
  c.loss = 0. && c.dup = 0. && c.min_delay = 0 && c.max_delay = 0 && c.partitions = []

let make ?(loss = 0.) ?(dup = 0.) ?(min_delay = 0) ?(max_delay = 0) ?(partitions = []) ~seed ()
    =
  if loss < 0. || loss >= 1. then invalid_arg "Net_fault.make: loss must be in [0,1)";
  if dup < 0. || dup >= 1. then invalid_arg "Net_fault.make: dup must be in [0,1)";
  if min_delay < 0 || max_delay < 0 then invalid_arg "Net_fault.make: negative delay";
  List.iter
    (fun p ->
      if p.from_t < 0 || p.heal_t < p.from_t then
        invalid_arg "Net_fault.make: bad partition window";
      if p.isolated = [] then invalid_arg "Net_fault.make: empty partition side")
    partitions;
  { seed; loss; dup; min_delay; max_delay; partitions }

let severed c ~src ~dst ~now =
  if src = dst then None
  else
    List.find_map
      (fun p ->
        if
          now >= p.from_t && now < p.heal_t
          && List.mem src p.isolated <> List.mem dst p.isolated
        then Some p.p_name
        else None)
      c.partitions

let last_heal c = List.fold_left (fun acc p -> max acc p.heal_t) 0 c.partitions
let active_at c ~now = List.exists (fun p -> now >= p.from_t && now < p.heal_t) c.partitions
