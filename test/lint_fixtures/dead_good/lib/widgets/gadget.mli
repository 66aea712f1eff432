val spin : int -> int
val turn : int -> int
val twist : int -> int
val nudge : int -> int
val seam : int -> int
