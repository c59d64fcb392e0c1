let print ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  let record row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record all;
  let print_row row =
    let cells =
      List.mapi
        (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ')
        row
    in
    print_string ("  " ^ String.concat "  " cells ^ "\n")
  in
  print_row header;
  let rule = List.mapi (fun i _ -> String.make widths.(i) '-') header in
  print_row rule;
  List.iter print_row rows

let fmt_f ?(decimals = 1) x = Printf.sprintf "%.*f" decimals x

let fmt_bytes n =
  let f = float_of_int n in
  if f >= 1024. *. 1024. *. 1024. then Printf.sprintf "%.1f GiB" (f /. (1024. *. 1024. *. 1024.))
  else if f >= 1024. *. 1024. then Printf.sprintf "%.1f MiB" (f /. (1024. *. 1024.))
  else if f >= 1024. then Printf.sprintf "%.1f KiB" (f /. 1024.)
  else Printf.sprintf "%d B" n
