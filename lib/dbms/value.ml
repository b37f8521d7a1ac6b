type t = Int of int | Str of string

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Int _, Str _ | Str _, Int _ -> false

let pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s

(* [pp]'s text without a formatter: [%S] is the escaped string between
   double quotes *)
let to_string = function
  | Int n -> string_of_int n
  | Str s -> "\"" ^ String.escaped s ^ "\""
