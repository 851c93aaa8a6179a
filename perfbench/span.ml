(** In-memory span recorder for the traced run.

    A span is (name, start, stop, parent, op): the benchmark opens one
    around each call it makes into a layer's public functions.  Spans
    nest through an explicit stack, so a span's parent is the span open
    when it started.  Everything stays in preallocated arrays until
    {!write} at exit; when recording is off, {!with_} costs one branch. *)

let on = ref false

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of_id = ref [||]

let cap = ref 0
let n = ref 0
let name = ref [||]
let start = ref [||]
let stop = ref [||]
let parent = ref [||]
let op = ref [||]
let current = ref (-1)

let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_of_id := Array.append !name_of_id [| s |];
      i

let grow () =
  let c = max 4096 (2 * !cap) in
  let ext a fill = Array.append a (Array.make (c - Array.length a) fill) in
  name := ext !name 0;
  start := ext !start 0.;
  stop := ext !stop 0.;
  parent := ext !parent (-1);
  op := ext !op 0;
  cap := c

(** Start recording (drops earlier spans). *)
let enable () =
  on := true;
  n := 0;
  current := -1

let disable () = on := false

(** [with_ ?op name f] runs [f] inside a span; [op] tags the spans of
    one benchmark operation (default: the enclosing span's). *)
let with_ ?op:opid label f =
  if not !on then f ()
  else begin
    if !n = !cap then grow ();
    let id = !n in
    incr n;
    let p = !current in
    !name.(id) <- intern label;
    !parent.(id) <- p;
    !op.(id) <-
      (match opid with Some o -> o | None -> if p >= 0 then !op.(p) else 0);
    current := id;
    !start.(id) <- Clock.now ();
    match f () with
    | r ->
        !stop.(id) <- Clock.now ();
        current := p;
        r
    | exception e ->
        !stop.(id) <- Clock.now ();
        current := p;
        raise e
  end

(** Per span name: (self seconds, total seconds, count).  A span's self
    time is its duration minus the durations of its direct children. *)
let totals () =
  let k = !n in
  let child = Array.make k 0. in
  for i = 0 to k - 1 do
    let p = !parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (!stop.(i) -. !start.(i))
  done;
  let acc = Hashtbl.create 64 in
  for i = 0 to k - 1 do
    let d = !stop.(i) -. !start.(i) in
    let s, t, c =
      Option.value (Hashtbl.find_opt acc !name.(i)) ~default:(0., 0., 0)
    in
    Hashtbl.replace acc !name.(i) (s +. d -. child.(i), t +. d, c + 1)
  done;
  Hashtbl.fold (fun id v l -> (!name_of_id.(id), v) :: l) acc []

(** Self seconds of every span called [name] (0 when none). *)
let self_of totals name =
  match List.assoc_opt name totals with Some (s, _, _) -> s | None -> 0.

(** Write every span as one tab-separated line:
    id, name, start_ns, stop_ns, parent id (-1 = root), op id. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tstop_ns\tparent\top\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%.0f\t%.0f\t%d\t%d\n" i
      !name_of_id.(!name.(i))
      (!start.(i) *. 1e9) (!stop.(i) *. 1e9) !parent.(i) !op.(i)
  done;
  close_out oc
