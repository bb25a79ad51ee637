(* LRU via lazy deletion: every access stamps the entry with a fresh tick
   and appends (key, tick) to a recency queue.  Eviction pops the queue
   until it finds a pair whose tick still matches the entry's — stale
   pairs (the entry was touched again later, or removed) are discarded.

   Hits on a resident set smaller than the capacity never evict, so on
   their own they would grow the queue without bound.  Once it holds more
   than twice the capacity, it is compacted to its live pairs, in order.
   A compaction leaves at most one pair per resident entry, so the next
   one is at least [capacity] pushes away: amortized O(1) per access. *)

module H = Hashtbl.Make (String)

type 'v entry = { value : 'v; mutable stamp : int }

type 'v t = {
  table : 'v entry H.t;
  recency : (string * int) Queue.t;
  capacity : int;
  mutable tick : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: capacity < 0";
  { table = H.create (max 16 capacity); recency = Queue.create (); capacity; tick = 0 }

let length t = H.length t.table

let live t (key, stamp) =
  match H.find_opt t.table key with Some e -> e.stamp = stamp | None -> false

let compact t =
  let kept = Queue.create () in
  Queue.iter (fun p -> if live t p then Queue.push p kept) t.recency;
  Queue.clear t.recency;
  Queue.transfer kept t.recency

let touch t key e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick;
  Queue.push (key, t.tick) t.recency;
  if Queue.length t.recency > 2 * t.capacity then compact t

let find ?(accept = fun _ -> true) t key =
  match H.find_opt t.table key with
  | Some e when accept e.value ->
      touch t key e;
      Some e.value
  | _ -> None

let rec evict t =
  match Queue.take_opt t.recency with
  | None -> ()
  | Some ((key, _) as p) -> if live t p then H.remove t.table key else evict t

let add t key value =
  if t.capacity = 0 then false
  else begin
    let full = H.length t.table >= t.capacity && not (H.mem t.table key) in
    if full then evict t;
    let e = { value; stamp = 0 } in
    H.replace t.table key e;
    touch t key e;
    full
  end

let remove t key = H.remove t.table key
let fold f t acc = H.fold (fun key e acc -> f key e.value acc) t.table acc
