type 'a t = {
  mu : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  items : 'a Queue.t;
  cap : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity < 1";
  {
    mu = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    items = Queue.create ();
    cap = capacity;
    closed = false;
  }

let try_push q x =
  Mutex.protect q.mu (fun () ->
      if q.closed || Queue.length q.items >= q.cap then false
      else begin
        Queue.push x q.items;
        Condition.signal q.not_empty;
        true
      end)

let push q x =
  Mutex.protect q.mu (fun () ->
      while (not q.closed) && Queue.length q.items >= q.cap do
        Condition.wait q.not_full q.mu
      done;
      if q.closed then false
      else begin
        Queue.push x q.items;
        Condition.signal q.not_empty;
        true
      end)

let pop q =
  Mutex.protect q.mu (fun () ->
      while (not q.closed) && Queue.is_empty q.items do
        Condition.wait q.not_empty q.mu
      done;
      if Queue.is_empty q.items then None
      else begin
        let x = Queue.pop q.items in
        Condition.signal q.not_full;
        Some x
      end)

let close q =
  Mutex.protect q.mu (fun () ->
      q.closed <- true;
      Condition.broadcast q.not_empty;
      Condition.broadcast q.not_full)

let length q = Mutex.protect q.mu (fun () -> Queue.length q.items)

let capacity q = q.cap
