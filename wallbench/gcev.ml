(* Allocation and GC pauses across every domain, read from the runtime's
   own event ring ([runtime_events], shipped with the compiler).

   [Gc.quick_stat] counts "this domain or potentially previous domains",
   so it cannot attribute the sharded executor's worker-domain allocation.
   The event ring can: each domain emits [EV_C_MINOR_ALLOCATED] (bytes
   allocated in its minor heap since its last minor collection) at every
   minor collection, plus begin/end spans for minor collections and major
   slices.  A measured region is bracketed by {!fence}s: a forced minor
   collection flushes every domain's pending allocation into the ring,
   so what lands between two fences is exactly the region's allocation.
   Worker domains flush theirs when they terminate, before the join. *)

module R = Runtime_events

let max_domains = 128

type t = {
  cursor : R.cursor;
  mutable counting : bool;
  alloc : int array;  (** minor-heap bytes, per domain *)
  minors : int array;
  major_slices : int array;
  pause_ns : int array;
  pause_max_ns : int array;
  open_minor : int64 array;
  open_slice : int64 array;
  mutable lost : int;
}

let span_end t d t0 ts =
  let ns = Int64.to_int (Int64.sub (R.Timestamp.to_int64 ts) t0) in
  t.pause_ns.(d) <- t.pause_ns.(d) + ns;
  if ns > t.pause_max_ns.(d) then t.pause_max_ns.(d) <- ns

let callbacks t =
  let runtime_begin d ts phase =
    if d < max_domains then
      match phase with
      | R.EV_MINOR -> t.open_minor.(d) <- R.Timestamp.to_int64 ts
      | R.EV_MAJOR_SLICE -> t.open_slice.(d) <- R.Timestamp.to_int64 ts
      | _ -> ()
  in
  let runtime_end d ts phase =
    if t.counting && d < max_domains then
      match phase with
      | R.EV_MINOR ->
          t.minors.(d) <- t.minors.(d) + 1;
          span_end t d t.open_minor.(d) ts
      | R.EV_MAJOR_SLICE ->
          t.major_slices.(d) <- t.major_slices.(d) + 1;
          span_end t d t.open_slice.(d) ts
      | _ -> ()
  in
  let runtime_counter d _ counter v =
    if t.counting && d < max_domains && counter = R.EV_C_MINOR_ALLOCATED then
      t.alloc.(d) <- t.alloc.(d) + v
  in
  let lost_events _ n = t.lost <- t.lost + n in
  R.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter ~lost_events ()

(* One event ring per process, so one reader. *)
let t =
  R.start ();
  let z () = Array.make max_domains 0 in
  {
    cursor = R.create_cursor None;
    counting = false;
    alloc = z ();
    minors = z ();
    major_slices = z ();
    pause_ns = z ();
    pause_max_ns = z ();
    open_minor = Array.make max_domains 0L;
    open_slice = Array.make max_domains 0L;
    lost = 0;
  }

let cb = callbacks t

(* [fence ~counting] closes the current region and opens the next: events
   up to the forced minor collection are credited to the region just
   ended (when it was counted); [counting] says whether the region now
   starting is. *)
let fence ~counting =
  Gc.minor ();
  ignore (R.read_poll t.cursor cb None);
  t.counting <- counting

let poll () = ignore (R.read_poll t.cursor cb None)

let reset () =
  List.iter
    (fun a -> Array.fill a 0 max_domains 0)
    [ t.alloc; t.minors; t.major_slices; t.pause_ns; t.pause_max_ns ]

let sum a = Array.fold_left ( + ) 0 a
let alloc_bytes () = sum t.alloc
let minors () = sum t.minors
let major_slices () = sum t.major_slices
let pause_ns () = sum t.pause_ns
let pause_max_ns () = Array.fold_left max 0 t.pause_max_ns
let lost () = t.lost

(* Per-domain (domain, alloc bytes, minors, pause ns) for domains that
   recorded anything. *)
let per_domain () =
  List.init max_domains Fun.id
  |> List.filter (fun d -> t.alloc.(d) > 0 || t.minors.(d) > 0)
  |> List.map (fun d -> (d, t.alloc.(d), t.minors.(d), t.pause_ns.(d)))
