(* One reported number: name, value, unit and the samples it rests on
   (0 when it is not a sample statistic). *)

type t = { name : string; value : float; unit_ : string; samples : int }

let v ?(samples = 0) name unit_ value = { name; value; unit_; samples }
