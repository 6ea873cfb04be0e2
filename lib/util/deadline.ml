type t = {
  cpu_until : float option;
  wall_until : float option;
  stops : bool Atomic.t list;
}

exception Timeout

let none = { cpu_until = None; wall_until = None; stops = [] }

let now () = Sys.time ()

let wall_now () = Unix.gettimeofday ()

let after s = { none with cpu_until = Some (now () +. s) }

let after_wall s = { none with wall_until = Some (wall_now () +. s) }

let with_stop t flag = { t with stops = flag :: t.stops }

let interrupted t = List.exists Atomic.get t.stops

let exceeded t =
  interrupted t
  || (match t.cpu_until with None -> false | Some u -> now () > u)
  || match t.wall_until with None -> false | Some u -> wall_now () > u

let remaining t =
  let cpu = Option.map (fun u -> u -. now ()) t.cpu_until in
  let wall = Option.map (fun u -> u -. wall_now ()) t.wall_until in
  match (cpu, wall) with
  | None, None -> None
  | Some c, None -> Some c
  | None, Some w -> Some w
  | Some c, Some w -> Some (Float.min c w)

let to_wall t =
  match remaining t with
  | None -> { none with stops = t.stops }
  | Some r -> { (after_wall r) with stops = t.stops }

let check t = if exceeded t then raise Timeout
