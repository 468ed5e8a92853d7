(* Growable int and float buffers.  Both live outside the OCaml heap
   (Bigarrays), so per-packet digests and per-call timings, which grow
   with the run, do not inflate the major-heap figure the benchmark
   reports.  The pushes are inlined so that a float pushed in the timed
   loop is not boxed: that loop runs inside the allocation fence. *)

module A = Bigarray.Array1

type ints = { mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) A.t; mutable len : int }

let ints () = { data = A.create Bigarray.int Bigarray.c_layout 65536; len = 0 }

let[@inline] push_int b v =
  if b.len = A.dim b.data then begin
    let d = A.create Bigarray.int Bigarray.c_layout (2 * b.len) in
    A.blit b.data (A.sub d 0 b.len);
    b.data <- d
  end;
  A.unsafe_set b.data b.len v;
  b.len <- b.len + 1

let get_int b i = A.get b.data i

type floats = { mutable fdata : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t; mutable flen : int }

let floats () = { fdata = A.create Bigarray.float64 Bigarray.c_layout 4096; flen = 0 }

let[@inline] push b v =
  if b.flen = A.dim b.fdata then begin
    let d = A.create Bigarray.float64 Bigarray.c_layout (2 * b.flen) in
    A.blit b.fdata (A.sub d 0 b.flen);
    b.fdata <- d
  end;
  A.unsafe_set b.fdata b.flen v;
  b.flen <- b.flen + 1

let length b = b.flen
let get b i = A.get b.fdata i

let sort_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Sorted copy of the samples. *)
let sorted b = sort_copy (Array.init b.flen (fun i -> A.get b.fdata i))

(* Percentile by linear interpolation between closest ranks, so a median
   of many samples is not quantised to one sample's value. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile a 0.5
