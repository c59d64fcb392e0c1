type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t elt =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 8 else cap * 2 in
  let data = Array.make new_cap elt in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i = check t i; t.data.(i)
let set t i x = check t i; t.data.(i) <- x

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.data.(t.len)
  end

let drop_front t k =
  if k < 0 || k > t.len then invalid_arg "Vec.drop_front";
  if k > 0 then begin
    Array.blit t.data k t.data 0 (t.len - k);
    t.len <- t.len - k
  end

let clear t =
  t.data <- [||];
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_array t = Array.sub t.data 0 t.len

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Vec.sub";
  Array.sub t.data pos len

let to_list t = Array.to_list (to_array t)

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t

let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p x then begin
      t.data.(!j) <- x;
      incr j
    end
  done;
  t.len <- !j
