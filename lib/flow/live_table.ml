(* The runtime's idle-expiry bookkeeping, flattened to structure-of-arrays.

   One entry per tracked flow: last-seen arrival cycle, timer-wheel epoch
   (incarnation stamp) and the flow's ingress tuple in packed form — four
   int lanes over the same open-addressing geometry as {!Flat_table}
   (multiplicative hash, linear probe, backward-shift deletion).  The
   per-packet operation is [touch]: one probe and one int store into the
   [last_seen] lane, dirtying a single cache line — where a boxed record
   per flow costs a pointer chase to a GC-traced block just to rewrite one
   field.  The tuple is only rebuilt (allocating) on the expiry path. *)

let empty_key = min_int

type t = {
  mutable fids : int array;  (* [empty_key] marks a free slot *)
  mutable last_seen : int array;
  mutable epochs : int array;
  mutable keys : int array;  (* 2 cells per slot: pack1 at [2i], pack2 at [2i+1] *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

let create ?(initial_size = 1024) () =
  let cap = ceil_pow2 (max initial_size 8) 8 in
  {
    fids = Array.make cap empty_key;
    last_seen = Array.make cap 0;
    epochs = Array.make cap 0;
    keys = Array.make (2 * cap) 0;
    mask = cap - 1;
    size = 0;
  }

let slot_of_key mask key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

let length t = t.size

(* The slot holding [fid], or [-1] when absent.  Slots are invalidated by
   any insert or remove; callers use them immediately. *)
let probe t fid =
  let fids = t.fids and mask = t.mask in
  let rec go i =
    let k = Array.unsafe_get fids i in
    if k = fid then i else if k = empty_key then -1 else go ((i + 1) land mask)
  in
  go (slot_of_key mask fid)

let last_seen_at t s = Array.unsafe_get t.last_seen s
let epoch_at t s = Array.unsafe_get t.epochs s
let set_last_seen_at t s now = Array.unsafe_set t.last_seen s now
let tuple_at t s = Five_tuple.of_packed t.keys.(2 * s) t.keys.((2 * s) + 1)

let insert_fresh fids last_seen epochs keys mask fid seen epoch k1 k2 =
  let rec go i =
    if Array.unsafe_get fids i = empty_key then begin
      fids.(i) <- fid;
      last_seen.(i) <- seen;
      epochs.(i) <- epoch;
      keys.(2 * i) <- k1;
      keys.((2 * i) + 1) <- k2
    end
    else go ((i + 1) land mask)
  in
  go (slot_of_key mask fid)

let grow t =
  let old_fids = t.fids
  and old_seen = t.last_seen
  and old_epochs = t.epochs
  and old_keys = t.keys in
  let cap = 2 * (t.mask + 1) in
  let fids = Array.make cap empty_key in
  let last_seen = Array.make cap 0 in
  let epochs = Array.make cap 0 in
  let keys = Array.make (2 * cap) 0 in
  let mask = cap - 1 in
  for i = 0 to Array.length old_fids - 1 do
    let k = Array.unsafe_get old_fids i in
    if k <> empty_key then
      insert_fresh fids last_seen epochs keys mask k
        (Array.unsafe_get old_seen i)
        (Array.unsafe_get old_epochs i)
        (Array.unsafe_get old_keys (2 * i))
        (Array.unsafe_get old_keys ((2 * i) + 1))
  done;
  t.fids <- fids;
  t.last_seen <- last_seen;
  t.epochs <- epochs;
  t.keys <- keys;
  t.mask <- mask

let maybe_grow t = if (t.size + 1) * 4 > (t.mask + 1) * 3 then grow t

let set t fid ~last_seen ~epoch ~tuple =
  if fid = empty_key then invalid_arg "Live_table.set: reserved key";
  maybe_grow t;
  let fids = t.fids and mask = t.mask in
  let rec go i =
    let k = Array.unsafe_get fids i in
    if k = fid then begin
      t.last_seen.(i) <- last_seen;
      t.epochs.(i) <- epoch;
      t.keys.(2 * i) <- Five_tuple.pack1 tuple;
      t.keys.((2 * i) + 1) <- Five_tuple.pack2 tuple
    end
    else if k = empty_key then begin
      fids.(i) <- fid;
      t.last_seen.(i) <- last_seen;
      t.epochs.(i) <- epoch;
      t.keys.(2 * i) <- Five_tuple.pack1 tuple;
      t.keys.((2 * i) + 1) <- Five_tuple.pack2 tuple;
      t.size <- t.size + 1
    end
    else go ((i + 1) land mask)
  in
  go (slot_of_key mask fid)

let remove t fid =
  if fid <> empty_key then begin
    let fids = t.fids and mask = t.mask in
    (* Backward-shift deletion over all four lanes, as in
       {!Flat_table.remove}. *)
    let rec shift hole j =
      let j = (j + 1) land mask in
      let k = Array.unsafe_get fids j in
      if k = empty_key then begin
        fids.(hole) <- empty_key;
        t.keys.(2 * hole) <- 0;
        t.keys.((2 * hole) + 1) <- 0;
        t.size <- t.size - 1
      end
      else begin
        let ideal = slot_of_key mask k in
        let stays =
          if hole <= j then ideal > hole && ideal <= j else ideal > hole || ideal <= j
        in
        if stays then shift hole j
        else begin
          fids.(hole) <- k;
          t.last_seen.(hole) <- t.last_seen.(j);
          t.epochs.(hole) <- t.epochs.(j);
          t.keys.(2 * hole) <- t.keys.(2 * j);
          t.keys.((2 * hole) + 1) <- t.keys.((2 * j) + 1);
          shift j j
        end
      end
    in
    let rec probe i =
      let k = Array.unsafe_get fids i in
      if k = fid then shift i i else if k = empty_key then () else probe ((i + 1) land mask)
    in
    probe (slot_of_key mask fid)
  end

let clear t =
  Array.fill t.fids 0 (Array.length t.fids) empty_key;
  Array.fill t.keys 0 (Array.length t.keys) 0;
  t.size <- 0
