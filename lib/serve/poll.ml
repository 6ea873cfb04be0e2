(* A poll(2)-shaped interface on [Unix.select], the one readiness API the
   OCaml stdlib ships everywhere; the loops stay well under FD_SETSIZE. *)

type interest = { mutable want_read : bool; mutable want_write : bool }

type t = { reg : (Unix.file_descr, interest) Hashtbl.t }

type ready = {
  r_fd : Unix.file_descr;
  r_readable : bool;
  r_writable : bool;
}

let create () = { reg = Hashtbl.create 64 }

let set t fd ~read ~write =
  if not (read || write) then Hashtbl.remove t.reg fd
  else
    match Hashtbl.find_opt t.reg fd with
    | Some i ->
      i.want_read <- read;
      i.want_write <- write
    | None -> Hashtbl.replace t.reg fd { want_read = read; want_write = write }

let remove t fd = Hashtbl.remove t.reg fd

let registered t = Hashtbl.length t.reg

let wait t ~timeout_s =
  let rd = ref [] and wr = ref [] in
  Hashtbl.iter
    (fun fd i ->
      if i.want_read then rd := fd :: !rd;
      if i.want_write then wr := fd :: !wr)
    t.reg;
  if !rd = [] && !wr = [] then begin
    (* select([],[],[],t) is a portable sleep; without it an idle loop
       would spin. *)
    if timeout_s > 0. then Unix.sleepf timeout_s;
    []
  end
  else
    match Unix.select !rd !wr [] timeout_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | readable, writable, _ ->
      let tbl = Hashtbl.create (List.length readable + List.length writable) in
      List.iter
        (fun fd ->
          Hashtbl.replace tbl fd
            { r_fd = fd; r_readable = true; r_writable = false })
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt tbl fd with
          | Some r -> Hashtbl.replace tbl fd { r with r_writable = true }
          | None ->
            Hashtbl.replace tbl fd
              { r_fd = fd; r_readable = false; r_writable = true })
        writable;
      Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
