val crank : int -> int
