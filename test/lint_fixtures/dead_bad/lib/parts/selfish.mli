val helper : int -> int
val api : int -> int
