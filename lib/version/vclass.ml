type t = Hot | Cold | Llt

let all = [ Hot; Cold; Llt ]
let count = 3
let to_index = function Hot -> 0 | Cold -> 1 | Llt -> 2

let of_index = function
  | 0 -> Hot
  | 1 -> Cold
  | 2 -> Llt
  | _ -> invalid_arg "Vclass.of_index"

let to_string = function Hot -> "HOT" | Cold -> "COLD" | Llt -> "LLT"
let pp fmt t = Format.pp_print_string fmt (to_string t)
