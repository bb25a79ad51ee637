(** A string-keyed table bounded by a capacity, evicting the
    least-recently-used entry: the core shared by the service's result
    cache and the restructurer's nest memo.  Every operation is amortized
    O(1), and the bookkeeping stays within a constant factor of the
    capacity however many hits it serves.  Not thread-safe: callers hold
    their own lock. *)

type 'v t

val create : capacity:int -> 'v t
(** A table holding at most [capacity] entries; [capacity = 0] stores
    nothing.
    @raise Invalid_argument when [capacity < 0] *)

val length : 'v t -> int
(** Resident entries. *)

val find : ?accept:('v -> bool) -> 'v t -> string -> 'v option
(** The entry under the key, if resident and [accept]ed (default: any),
    marking it most recently used.  A refused entry keeps its place. *)

val add : 'v t -> string -> 'v -> bool
(** Insert or overwrite an entry, marking it most recently used.  [true]
    when the least-recently-used entry was evicted to make room. *)

val remove : 'v t -> string -> unit
(** Drop an entry (no-op when absent); not an eviction. *)

val fold : (string -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** Over the resident entries, in no particular order, without touching
    recency. *)
