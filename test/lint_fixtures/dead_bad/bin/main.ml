let () = print_int (Parts.Selfish.api 1)
