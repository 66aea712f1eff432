type t = int32

let of_int32 x = x
let to_int32 t = t

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range" in
  check a;
  check b;
  check c;
  check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

let octet t shift = Int32.to_int (Int32.logand (Int32.shift_right_logical t shift) 0xFFl)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 24) (octet t 16) (octet t 8) (octet t 0)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> begin
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255
        ->
          Some (of_octets a b c d)
      | _ -> None
    end
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg ("Ipv4.of_string_exn: " ^ s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
let equal = Int32.equal
let compare = Int32.unsigned_compare
let add t n = Int32.add t (Int32.of_int n)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  (* Router addresses differ mostly in their middle octets (the ASN):
     spread them over the low bits the table indexes buckets by. *)
  let hash a =
    let z = Int32.to_int a * 0x9E3779B1 in
    (z lxor (z lsr 29)) land max_int
end)
