(* Scratch directories for the tests that write a store: each call makes a
   fresh, uniquely named directory ([Filename.temp_dir]), so a run can
   never meet files an earlier run left behind, and removes it with
   everything in it when the body returns or raises. *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect
    ~finally:(fun () -> try remove dir with Sys_error _ -> ())
    (fun () -> f dir)
