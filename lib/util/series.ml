type t = { points : (float * float) Vec.t }

let create () = { points = Vec.create () }
let add t ~time ~value = Vec.push t.points (time, value)
let to_list t = Vec.to_list t.points

let last t =
  let n = Vec.length t.points in
  if n = 0 then None else Some (Vec.get t.points (n - 1))

module Rate = struct
  type rate = { bucket : float; counts : int Vec.t; mutable total : int }

  let create ?(bucket = 1.0) () =
    if bucket <= 0. then invalid_arg "Series.Rate.create";
    { bucket; counts = Vec.create (); total = 0 }

  let incr r ~time =
    if time < 0. then invalid_arg "Series.Rate.incr: negative time";
    let idx = int_of_float (time /. r.bucket) in
    while Vec.length r.counts <= idx do
      Vec.push r.counts 0
    done;
    Vec.set r.counts idx (Vec.get r.counts idx + 1);
    r.total <- r.total + 1

  let per_second r =
    List.mapi
      (fun i c -> (float_of_int i *. r.bucket, float_of_int c /. r.bucket))
      (Vec.to_list r.counts)

  let total r = r.total
end
