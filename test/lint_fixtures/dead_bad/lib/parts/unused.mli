val nobody : int -> int
