(* Bounded blocking queue: one mutex, two conditions (not_empty for
   consumers, not_full for producers).  See bounded_queue.mli. *)

type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
  mutable high_water : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity < 1";
  {
    items = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
    high_water = 0;
  }

let with_lock q f =
  Mutex.lock q.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock q.mutex) f

let push q x =
  with_lock q (fun () ->
      while (not q.closed) && Queue.length q.items >= q.capacity do
        Condition.wait q.not_full q.mutex
      done;
      if q.closed then false
      else begin
        Queue.push x q.items;
        q.high_water <- max q.high_water (Queue.length q.items);
        Condition.signal q.not_empty;
        true
      end)

(* non-blocking enqueue: [add] places the item, unless the queue is
   closed or full *)
let try_add q add =
  with_lock q (fun () ->
      if q.closed || Queue.length q.items >= q.capacity then false
      else begin
        add ();
        q.high_water <- max q.high_water (Queue.length q.items);
        Condition.signal q.not_empty;
        true
      end)

let try_push q x = try_add q (fun () -> Queue.push x q.items)

let try_push_front q x =
  try_add q (fun () ->
      let rest = Queue.create () in
      Queue.transfer q.items rest;
      Queue.push x q.items;
      Queue.transfer rest q.items)

let pop q =
  with_lock q (fun () ->
      while Queue.is_empty q.items && not q.closed do
        Condition.wait q.not_empty q.mutex
      done;
      match Queue.take_opt q.items with
      | Some x ->
          Condition.signal q.not_full;
          Some x
      | None -> None (* closed and drained *))

let close q =
  with_lock q (fun () ->
      q.closed <- true;
      Condition.broadcast q.not_empty;
      Condition.broadcast q.not_full)

let length q = with_lock q (fun () -> Queue.length q.items)
let high_water q = with_lock q (fun () -> q.high_water)
