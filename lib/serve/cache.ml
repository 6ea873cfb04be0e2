type 'v node = {
  nkey : string;
  mutable nval : 'v;
  mutable prev : 'v node option;  (* toward the MRU head *)
  mutable next : 'v node option;  (* toward the LRU tail *)
}

type 'v shard = {
  mu : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable size : int;
  cap : int;
}

type 'v flight = {
  fmu : Mutex.t;
  fcv : Condition.t;
  mutable fresult : ('v, exn) result option;
}

type 'v t = {
  shards : 'v shard array;
  inflight_mu : Mutex.t;
  inflight : (string, 'v flight) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  joins : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(shards = 16) ~capacity () =
  if shards < 1 then invalid_arg "Cache.create: shards < 1";
  let per_shard =
    if capacity < 1 then 0 else (capacity + shards - 1) / shards
  in
  {
    shards =
      Array.init shards (fun _ ->
          {
            mu = Mutex.create ();
            tbl = Hashtbl.create 64;
            head = None;
            tail = None;
            size = 0;
            cap = per_shard;
          });
    inflight_mu = Mutex.create ();
    inflight = Hashtbl.create 16;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    joins = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let shard_of c key = c.shards.(Hashtbl.hash key mod Array.length c.shards)

(* -- Recency list (callers hold the shard lock) ---------------------------- *)

let unlink sh n =
  (match n.prev with Some p -> p.next <- n.next | None -> sh.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> sh.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front sh n =
  n.next <- sh.head;
  n.prev <- None;
  (match sh.head with Some h -> h.prev <- Some n | None -> sh.tail <- Some n);
  sh.head <- Some n

(* -- Operations ------------------------------------------------------------ *)

let find c key =
  let sh = shard_of c key in
  Mutex.protect sh.mu (fun () ->
      match Hashtbl.find_opt sh.tbl key with
      | Some n ->
        unlink sh n;
        push_front sh n;
        Atomic.incr c.hits;
        Some n.nval
      | None ->
        Atomic.incr c.misses;
        None)

let add c key v =
  let sh = shard_of c key in
  if sh.cap > 0 then
    Mutex.protect sh.mu (fun () ->
        (match Hashtbl.find_opt sh.tbl key with
        | Some n ->
          n.nval <- v;
          unlink sh n;
          push_front sh n
        | None ->
          let n = { nkey = key; nval = v; prev = None; next = None } in
          Hashtbl.replace sh.tbl key n;
          push_front sh n;
          sh.size <- sh.size + 1);
        if sh.size > sh.cap then
          match sh.tail with
          | Some lru ->
            unlink sh lru;
            Hashtbl.remove sh.tbl lru.nkey;
            sh.size <- sh.size - 1;
            Atomic.incr c.evictions
          | None -> ())

type origin = Hit | Computed | Joined

let find_or_compute c key ~compute =
  match find c key with
  | Some v -> (v, Hit)
  | None -> (
    Mutex.lock c.inflight_mu;
    match Hashtbl.find_opt c.inflight key with
    | Some fl -> (
      Mutex.unlock c.inflight_mu;
      Atomic.incr c.joins;
      let r =
        Mutex.protect fl.fmu (fun () ->
            while fl.fresult = None do
              Condition.wait fl.fcv fl.fmu
            done;
            Option.get fl.fresult)
      in
      match r with Ok v -> (v, Joined) | Error e -> raise e)
    | None -> (
      let fl =
        { fmu = Mutex.create (); fcv = Condition.create (); fresult = None }
      in
      Hashtbl.add c.inflight key fl;
      Mutex.unlock c.inflight_mu;
      let result = try Ok (compute ()) with e -> Error e in
      (match result with
      | Ok (v, cacheable) -> if cacheable then add c key v
      | Error _ -> ());
      (* Publish before clearing the in-flight entry: a joiner that already
         holds [fl] sees the result; later arrivals go through the cache. *)
      Mutex.protect fl.fmu (fun () ->
          fl.fresult <-
            Some (match result with Ok (v, _) -> Ok v | Error e -> Error e);
          Condition.broadcast fl.fcv);
      Mutex.protect c.inflight_mu (fun () -> Hashtbl.remove c.inflight key);
      match result with Ok (v, _) -> (v, Computed) | Error e -> raise e))

type stats = {
  hits : int;
  misses : int;
  joins : int;
  evictions : int;
  size : int;
  capacity : int;
}

let stats c =
  let size = ref 0 and capacity = ref 0 in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          size := !size + sh.size;
          capacity := !capacity + sh.cap))
    c.shards;
  {
    hits = Atomic.get c.hits;
    misses = Atomic.get c.misses;
    joins = Atomic.get c.joins;
    evictions = Atomic.get c.evictions;
    size = !size;
    capacity = !capacity;
  }

let clear c =
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.reset sh.tbl;
          sh.head <- None;
          sh.tail <- None;
          sh.size <- 0))
    c.shards
