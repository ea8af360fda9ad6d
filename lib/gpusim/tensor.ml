(* Dense row-major host tensors used by the functional interpreter and the
   reference implementations. Values are held as float64 regardless of the
   declared dtype; dtype drives byte accounting only.

   Storage is an unboxed [Bigarray.Array1] (float64, C layout): element
   reads and writes never touch the OCaml heap, so functional-correctness
   runs stop churning the minor heap, and the payload is invisible to the
   GC entirely. *)

open Alcop_ir

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  shape : int list;
  strides : int array;
  data : data;
  dtype : Dtype.t;
}

let num_elements shape = List.fold_left ( * ) 1 shape

let shape_equal a b = List.equal Int.equal a b

let strides_of shape =
  let dims = Array.of_list shape in
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  strides

let alloc n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create ?(dtype = Dtype.F16) shape value =
  let ok =
    match shape with
    | [] -> false
    | dims -> List.for_all (fun d -> d > 0) dims
  in
  if not ok then invalid_arg "Tensor.create: bad shape";
  let data = alloc (num_elements shape) in
  Bigarray.Array1.fill data value;
  { shape; strides = strides_of shape; data; dtype }

let zeros ?dtype shape = create ?dtype shape 0.0

let init ?(dtype = Dtype.F16) shape f =
  let strides = strides_of shape in
  let n = num_elements shape in
  let data = alloc n in
  let idx = Array.make (Array.length strides) 0 in
  for flat = 0 to n - 1 do
    let rem = ref flat in
    Array.iteri
      (fun d s ->
        idx.(d) <- !rem / s;
        rem := !rem mod s)
      strides;
    Bigarray.Array1.unsafe_set data flat (f (Array.copy idx))
  done;
  { shape; strides; data; dtype }

(* Deterministic pseudo-random tensor in [-1, 1), seeded per tensor so tests
   and benches are reproducible. *)
let random ?(dtype = Dtype.F16) ~seed shape =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    (* xorshift-ish LCG; quality is irrelevant, determinism is not *)
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. 536870912.0) -. 1.0
  in
  let n = num_elements shape in
  let data = alloc n in
  for flat = 0 to n - 1 do
    Bigarray.Array1.unsafe_set data flat (next ())
  done;
  { shape; strides = strides_of shape; data; dtype }

let get t idx =
  let flat = ref 0 in
  Array.iteri (fun d i -> flat := !flat + (i * t.strides.(d))) idx;
  Bigarray.Array1.get t.data !flat

let set t idx v =
  let flat = ref 0 in
  Array.iteri (fun d i -> flat := !flat + (i * t.strides.(d))) idx;
  Bigarray.Array1.set t.data !flat v

let map f t =
  let n = Bigarray.Array1.dim t.data in
  let data = alloc n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set data i (f (Bigarray.Array1.unsafe_get t.data i))
  done;
  { t with data }

let max_abs_diff a b =
  if not (shape_equal a.shape b.shape) then
    invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let worst = ref 0.0 in
  for i = 0 to Bigarray.Array1.dim a.data - 1 do
    worst :=
      Float.max !worst
        (Float.abs
           (Bigarray.Array1.unsafe_get a.data i
            -. Bigarray.Array1.unsafe_get b.data i))
  done;
  !worst

let allclose ?(atol = 1e-6) ?(rtol = 1e-6) a b =
  if not (shape_equal a.shape b.shape) then false
  else begin
    let ok = ref true in
    for i = 0 to Bigarray.Array1.dim a.data - 1 do
      let x = Bigarray.Array1.unsafe_get a.data i in
      let y = Bigarray.Array1.unsafe_get b.data i in
      if Float.abs (x -. y) > atol +. (rtol *. Float.abs y) then ok := false
    done;
    !ok
  end
