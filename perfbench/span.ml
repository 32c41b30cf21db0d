(* Spans: timed intervals recorded at layer boundaries, in the
   benchmark's own code around public calls into each layer.

   Every process on the host reads the same CLOCK_MONOTONIC, so a span
   taken in a tier process can be laid against the driver's send and
   receive times of the request that caused it.  ([Jim_core.Metrics.now_ns]
   reads the wall clock and is not used here.)

   A span is keyed by the session id and the per-session ordinal of the
   request it belongs to (Start_session is ordinal 0).  Both sides know
   these without any protocol change: the driver counts its own
   requests, and a tier process counts the requests it sees per session
   — at most one request per session is ever in flight, and each reaches
   every process on its path exactly once. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  name : string;
  session : int;
  ordinal : int;
  t0 : int;
  t1 : int;
  bytes : int;  (** payload size for I/O spans, 0 otherwise *)
}

let duration s = s.t1 - s.t0

(* ------------------------------------------------------------------ *)
(* Recording inside a tier process                                     *)

let lock = Mutex.create ()
let recorded : t list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Spans opened below a request handler (the persist hook, the store's
   I/O, the router's upstream call) run on the handler's own thread
   before the request's key is known — a Start_session learns its id
   only from the reply.  They wait in the thread's context until the
   handler closes the request. *)
let contexts : (int, (string * int * int * int) list ref) Hashtbl.t =
  Hashtbl.create 16

let self () = Thread.id (Thread.self ())

let open_request () =
  with_lock (fun () -> Hashtbl.replace contexts (self ()) (ref []))

(* A child span outside any request (store recovery at start-up) has no
   key and is dropped. *)
let child name t0 t1 bytes =
  with_lock (fun () ->
      match Hashtbl.find_opt contexts (self ()) with
      | Some l -> l := (name, t0, t1, bytes) :: !l
      | None -> ())

let close_request ~session ~ordinal own =
  with_lock (fun () ->
      let children =
        match Hashtbl.find_opt contexts (self ()) with
        | Some l -> !l
        | None -> []
      in
      Hashtbl.remove contexts (self ());
      let mk (name, t0, t1, bytes) = { name; session; ordinal; t0; t1; bytes } in
      recorded := List.rev_append (List.map mk (own @ children)) !recorded)

let discard_request () =
  with_lock (fun () -> Hashtbl.remove contexts (self ()))

let ordinals : (int, int) Hashtbl.t = Hashtbl.create 64

let next_ordinal session =
  with_lock (fun () ->
      let n = Option.value ~default:0 (Hashtbl.find_opt ordinals session) in
      Hashtbl.replace ordinals session (n + 1);
      n)

let clear () =
  with_lock (fun () ->
      recorded := [];
      Hashtbl.reset contexts)

let write oc =
  List.iter
    (fun s ->
      Printf.fprintf oc "span %s %d %d %d %d %d\n" s.name s.session s.ordinal
        s.t0 s.t1 s.bytes)
    (with_lock (fun () -> List.rev !recorded))

let of_line line =
  match String.split_on_char ' ' line with
  | [ "span"; name; session; ordinal; t0; t1; bytes ] ->
    Some
      {
        name;
        session = int_of_string session;
        ordinal = int_of_string ordinal;
        t0 = int_of_string t0;
        t1 = int_of_string t1;
        bytes = int_of_string bytes;
      }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let inside ~parent c = parent.t0 <= c.t0 && c.t1 <= parent.t1

(* Self time: the parent's duration minus the part of it its children
   cover (overlapping children count once). *)
let self_time parent children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max parent.t0 c.t0 and b = min parent.t1 c.t1 in
        if a < b then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) clipped
  in
  duration parent - covered

(* Fixed cases the traced run checks before trusting its own numbers:
   disjoint, overlapping, nested and overhanging children. *)
let self_test () =
  let sp t0 t1 = { name = "x"; session = 0; ordinal = 0; t0; t1; bytes = 0 } in
  let p = sp 100 200 in
  let cases =
    [
      ([], 100);
      ([ sp 110 120; sp 130 150 ], 70);
      ([ sp 110 140; sp 130 150 ], 60);
      ([ sp 110 190; sp 120 130 ], 20);
      ([ sp 50 150 ], 50);
      ([ sp 0 300 ], 0);
      ([ sp 300 400 ], 100);
    ]
  in
  List.for_all (fun (cs, want) -> self_time p cs = want) cases
  && inside ~parent:p (sp 100 200)
  && not (inside ~parent:p (sp 99 150))
