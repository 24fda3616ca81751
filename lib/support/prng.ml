(* The splitmix64 state lives unboxed in 8 bytes, read and written with the
   compiler's 64-bit byte-access primitives, so a draw allocates nothing: an
   [int64] held in a mutable record field would be boxed afresh on every
   update. The bytes are only ever accessed through these two primitives, so
   their byte order does not matter. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t = of_state (bits64 t)
let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* The top 62 bits as a native int: non-negative and below 2^62, so native
     [mod] (or a mask, for a power of two) is exact and no [Int64] division
     is needed. Rejection-free modulo is fine: bounds are tiny w.r.t. 2^62. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  if bound land (bound - 1) = 0 then r land (bound - 1) else r mod bound

let int_range t lo hi =
  if hi < lo then invalid_arg "Prng.int_range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. u /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.to_int (bits64 t) land 1 = 1

let rec gaussian t =
  let u1 = float t 1.0 in
  if u1 <= 1e-300 then gaussian t
  else
    let u2 = float t 1.0 in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
