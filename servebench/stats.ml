(* Order statistics over a run's samples. *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Middle element of a sorted list of counts (the upper one of an even
   count): a count stays a count. *)
let median_int = function
  | [] -> 0
  | xs -> List.nth (List.sort compare xs) (List.length xs / 2)
