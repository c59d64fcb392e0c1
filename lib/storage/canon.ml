(* ------------------------------------------------------------------ *)
(* Writing *)

(* A growable byte buffer like [Buffer.t], but one whose writers reserve
   room once per value and then store bytes unchecked, and whose bytes
   can be checksummed in place. *)
type out = { mutable b : Bytes.t; mutable len : int }

let out n = { b = Bytes.create (max n 16); len = 0 }
let clear o = o.len <- 0
let contents o = Bytes.sub_string o.b 0 o.len
let crc32 crc o = Crc32.update_sub crc (Bytes.unsafe_to_string o.b) 0 o.len

let grow o n =
  let cap = ref (Bytes.length o.b) in
  while !cap < o.len + n do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit o.b 0 b 0 o.len;
  o.b <- b

let reserve o n = if o.len + n > Bytes.length o.b then grow o n

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.b o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.b o.len n;
  o.len <- o.len + n

(* [string_of_int n], digit by digit from the last, for [n >= 0]. *)
let add_nat o n =
  let d = ref 1 and p = ref 10 in
  while !d < 19 && n >= !p do
    incr d;
    p := !p * 10
  done;
  reserve o !d;
  let n = ref n and i = ref (o.len + !d - 1) in
  while !n >= 10 do
    Bytes.unsafe_set o.b !i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10;
    decr i
  done;
  Bytes.unsafe_set o.b !i (Char.unsafe_chr (Char.code '0' + !n));
  o.len <- o.len + !d

let add_int o n =
  if n >= 0 then add_nat o n
  else if n = min_int then add_string o (string_of_int n)
  else begin
    add_char o '-';
    add_nat o (-n)
  end

let add_member o key n =
  add_string o key;
  add_int o n

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Jsonx writes a string with nothing to escape verbatim; the rare one
   that needs escapes goes through Jsonx itself, the specification. *)
let add_str o s =
  if String.exists needs_escape s then begin
    let buf = Buffer.create 16 in
    Jsonx.to_buffer buf (Jsonx.Str s);
    add_string o (Buffer.contents buf)
  end
  else begin
    add_char o '"';
    add_string o s;
    add_char o '"'
  end

let add_list o add xs =
  add_char o '[';
  List.iteri
    (fun i x ->
      if i > 0 then add_char o ',';
      add o x)
    xs;
  add_char o ']'

(* ------------------------------------------------------------------ *)
(* Scanning *)

exception Not_canonical

type cursor = { s : string; lim : int; mutable pos : int }

let looking_at c lit =
  let n = String.length lit in
  c.pos + n <= c.lim
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get c.s (c.pos + !i) = String.unsafe_get lit !i do
    incr i
  done;
  !i = n

let expect c lit = if looking_at c lit then c.pos <- c.pos + String.length lit else raise Not_canonical

let char c ch =
  if c.pos < c.lim && String.unsafe_get c.s c.pos = ch then c.pos <- c.pos + 1
  else raise Not_canonical

let is_digit = function '0' .. '9' -> true | _ -> false

(* A [string_of_int] rendering: no leading zero and no [-0]. Up to 18
   digits cannot overflow; a 19-digit one is read again by
   [int_of_string_opt], which refuses a value past [min_int]/[max_int]
   exactly as the Jsonx parser does. *)
let int c =
  let neg = c.pos < c.lim && String.unsafe_get c.s c.pos = '-' in
  let start = if neg then c.pos + 1 else c.pos in
  let i = ref start and v = ref 0 in
  while !i < c.lim && is_digit (String.unsafe_get c.s !i) do
    v := (!v * 10) + Char.code (String.unsafe_get c.s !i) - Char.code '0';
    incr i
  done;
  let digits = !i - start in
  if digits = 0 || digits > 19 || (digits > 1 && String.unsafe_get c.s start = '0') || (neg && digits = 1 && !v = 0)
  then raise Not_canonical;
  let v =
    if digits < 19 then if neg then - !v else !v
    else
      match int_of_string_opt (String.sub c.s c.pos (!i - c.pos)) with
      | Some v -> v
      | None -> raise Not_canonical
  in
  c.pos <- !i;
  v

let member c key =
  expect c key;
  int c

(* A string as Jsonx prints it. The rare one with escapes goes through
   the Jsonx parser and must print back to the same bytes. *)
let str c =
  char c '"';
  let start = c.pos and escaped = ref false in
  while c.pos < c.lim && String.unsafe_get c.s c.pos <> '"' do
    let ch = String.unsafe_get c.s c.pos in
    if Char.code ch < 0x20 then raise Not_canonical;
    if ch = '\\' then begin
      escaped := true;
      c.pos <- c.pos + 1
    end;
    c.pos <- c.pos + 1
  done;
  if c.pos >= c.lim then raise Not_canonical;
  c.pos <- c.pos + 1;
  if not !escaped then String.sub c.s start (c.pos - 1 - start)
  else
    let lit = String.sub c.s (start - 1) (c.pos - start + 1) in
    match Jsonx.of_string lit with
    | Ok (Jsonx.Str v as j) when Jsonx.to_string j = lit -> v
    | _ -> raise Not_canonical

let list c elem =
  char c '[';
  if c.pos < c.lim && String.unsafe_get c.s c.pos = ']' then begin
    c.pos <- c.pos + 1;
    []
  end
  else
    let rec go acc =
      let x = elem c in
      if c.pos < c.lim && String.unsafe_get c.s c.pos = ',' then begin
        c.pos <- c.pos + 1;
        go (x :: acc)
      end
      else begin
        char c ']';
        List.rev (x :: acc)
      end
    in
    go []
