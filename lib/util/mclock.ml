external now_ns : unit -> int = "st_mclock_now_ns" [@@noalloc]
