(** Shared pieces of the benchmark: run records, declared op counts,
    percentiles, the host calibration loop and process probes. *)

(** A run that broke its declared shape (short op count, a dry replay,
    a lost response, a dropped packet): an error, never a sample. *)
exception Invalid_run of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_run s)) fmt

(** What one pass over a workload's fixed work recorded. *)
type run = {
  wall : float;  (** seconds of the fixed work *)
  packets : int;  (** packets through the workload's packet path *)
  lat : float array;  (** per-op seconds, alike ops only *)
  failed : int;  (** ops that did not succeed *)
  ok_frac : float;
  correct : bool;  (** the output check against the reference *)
  layers : (string * float) list;  (** per-layer figures (traced run) *)
}

(** The declared operation count of a run: [per_s] ops for every
    second asked for, and never fewer than [min] — a fixed count for a
    given [--seconds], never a time box. *)
let declared ~seconds ~per_s ~min = max min (seconds * per_s)

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (Clock.now () -. t0, r)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(** The [p] quantile of [samples], refused unless at least ten samples
    lie beyond it. *)
let percentile samples p =
  let k = Array.length samples in
  if float_of_int k *. (1. -. p) < 10. then
    invalid "p%g over %d samples leaves fewer than 10 beyond it" (100. *. p) k;
  let a = Array.copy samples in
  Array.sort compare a;
  a.(min (k - 1) (int_of_float (Float.ceil (p *. float_of_int k)) - 1))

(** A fixed integer loop (xorshift), timed: separates a slow host from a
    slow change. *)
let calib_ops_per_s () =
  let iters = 50_000_000 in
  let t0 = Clock.now () in
  let x = ref 88172645463325252 in
  for _ = 1 to iters do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  let dt = Clock.now () -. t0 in
  if !x = 0 then invalid "calibration loop collapsed";
  float_of_int iters /. dt

(** Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(** All-domain GC counters (terminated domains included), for calls
    that run domains; single-domain calls use [Gc.minor_words]. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let majors () = (Gc.quick_stat ()).Gc.major_collections

(** Scratch files of a run live under [.bench_work/] in the working
    directory. *)
let work_path file =
  let dir = ".bench_work" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

let sorted_reports rs = List.sort Newton_query.Report.compare rs

let same_reports a b =
  List.equal
    (fun x y -> Newton_query.Report.compare x y = 0)
    (sorted_reports a) (sorted_reports b)

(** How many reports of sorted [a] are missing from sorted [b], counted
    as multisets. *)
let missing a b =
  let rec go n a b =
    match (a, b) with
    | [], _ -> n
    | _, [] -> n + List.length a
    | x :: a', y :: b' ->
        let c = Newton_query.Report.compare x y in
        if c = 0 then go n a' b' else if c < 0 then go (n + 1) a' b else go n a b'
  in
  go 0 a b

let us_per s n = if n = 0 then 0. else s *. 1e6 /. float_of_int n

