(* The table, its LRU order and the bound live in [Lru]; this layer adds
   the lock and the hit/miss/eviction accounting. *)

type 'a t = {
  lru : 'a Lru.t;
  mutex : Mutex.t;
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

(* each cache counts into children of these totals, so `--metrics` sees
   every cache's behaviour summed without a Server.stats call *)
let m_hits =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"cache lookups served from the table" "service_cache_hits_total"

let m_misses =
  Obs.Metrics.counter Obs.Metrics.global ~help:"cache lookups that missed"
    "service_cache_misses_total"

let m_evictions =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"entries evicted to stay under capacity"
    "service_cache_evictions_total"

let create ~capacity =
  {
    lru = Lru.create ~capacity;
    mutex = Mutex.create ();
    hits = Obs.Metrics.child m_hits;
    misses = Obs.Metrics.child m_misses;
    evictions = Obs.Metrics.child m_evictions;
  }

let digest content = Digest.to_hex (Digest.string content)

let with_lock c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let find c key =
  with_lock c (fun () ->
      match Lru.find c.lru key with
      | Some _ as hit ->
          Obs.Metrics.incr c.hits;
          hit
      | None ->
          Obs.Metrics.incr c.misses;
          None)

let add c key value =
  with_lock c (fun () ->
      if Lru.add c.lru key value then Obs.Metrics.incr c.evictions)

(* not counted as an eviction: the caller dropped it deliberately, e.g.
   on a checksum mismatch *)
let remove c key = with_lock c (fun () -> Lru.remove c.lru key)

let export c =
  with_lock c (fun () ->
      (* a snapshot, deliberately without touching recency: exporting for
         replication must not perturb the LRU order *)
      Lru.fold (fun key value acc -> (key, value) :: acc) c.lru [])

let stats (c : _ t) =
  let v = Obs.Metrics.counter_value in
  {
    hits = v c.hits;
    misses = v c.misses;
    evictions = v c.evictions;
    entries = with_lock c (fun () -> Lru.length c.lru);
  }

let hit_rate (s : stats) =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups
