(* The load side: line-framed connections, the scripted JIM session, and
   the closed- and open-loop drivers that run sessions over them.

   A session runs start → (question → answer)* → result → end.  On
   [durable] and [routed] the first answer is undone and answered again.
   The answers come from the planted goal of the session's instance. *)

module P = Jim_api.Protocol
module W = Workload

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c payload =
  let s = Bytes.unsafe_of_string (payload ^ "\n") in
  let n = Bytes.length s in
  let rec go off =
    if off < n then go (off + Unix.write c.fd s off (n - off))
  in
  go 0

let buffered_line c =
  match Bytes.index_from_opt c.buf c.lo '\n' with
  | Some i when i < c.hi ->
    let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
    c.lo <- i + 1;
    Some line
  | _ -> None

let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
  if n = 0 then failwith "connection closed by the tier";
  c.hi <- c.hi + n

let rec recv c =
  match buffered_line c with
  | Some l -> l
  | None ->
    fill c;
    recv c

let call c payload =
  send c payload;
  recv c

(* ------------------------------------------------------------------ *)
(* The session script                                                  *)

type kind = Start | Next | Answer | Other

let kind_code = function Start -> 0 | Next -> 1 | Answer -> 2 | Other -> 3

type step =
  | Starting
  | Asking
  | Labeling of int * Jim_core.State.label
  | Undoing of int * Jim_core.State.label
  | Finishing
  | Ending
  | Done

type session = {
  spec : W.spec;
  inst : W.instance;
  strategy : string;
  mutable id : int;
  mutable ordinal : int;
  mutable step : step;
  mutable undone : bool;
  mutable asked : int;
  mutable result : string;
}

let session strategy (instances : W.instance array) spec =
  {
    spec;
    inst = instances.(spec.W.inst);
    strategy;
    id = -1;
    ordinal = 0;
    step = Starting;
    undone = false;
    asked = 0;
    result = "";
  }

(* The session's next request, and its kind. *)
let request s =
  let kind, req =
    match s.step with
    | Starting ->
      ( Start,
        P.Start_session
          { source = s.inst.W.source; strategy = s.strategy; seed = s.spec.W.seed } )
    | Asking -> (
      match s.spec.W.mode with
      | W.Ask -> (Next, P.Get_question { session = s.id })
      | W.Top k -> (Next, P.Top_questions { session = s.id; k }))
    | Labeling (cls, label) -> (Answer, P.Answer { session = s.id; cls; label })
    | Undoing _ -> (Answer, P.Undo { session = s.id })
    | Finishing -> (Other, P.Result { session = s.id })
    | Ending -> (Other, P.End_session { session = s.id })
    | Done -> invalid_arg "request: session is done"
  in
  (kind, P.request_to_string req)

exception Unexpected of string

let label s (q : P.question) = (q.P.cls, Jim_core.Oracle.label s.inst.W.oracle q.P.sg)

(* Advance the script on a reply; raises [Unexpected] on a reply the
   script does not allow (a failure of any kind). *)
let advance s line =
  s.ordinal <- s.ordinal + 1;
  let fail () = raise (Unexpected line) in
  match s.step with
  | Finishing ->
    (* Decoded after the measured phase, by the output check. *)
    s.result <- line;
    s.step <- Ending
  | step -> (
    match (step, P.response_of_string line) with
    | Starting, Ok (P.Started { session; _ }) ->
      s.id <- session;
      s.step <- Asking
    | Asking, Ok (P.Question (Some q)) | Asking, Ok (P.Questions (q :: _)) ->
      let cls, l = label s q in
      s.step <- Labeling (cls, l)
    | Labeling (cls, l), Ok (P.Answered { finished; asked; _ }) ->
      s.asked <- asked;
      s.step <-
        (if s.spec.W.undo && not s.undone then Undoing (cls, l)
         else if finished then Finishing
         else Asking)
    | Undoing _, Ok (P.Undone _) ->
      s.undone <- true;
      s.step <- Asking
    | Ending, Ok P.Ended -> s.step <- Done
    | _ -> fail ())

(* ------------------------------------------------------------------ *)
(* What a driver thread records                                        *)

(* One row per request: kind, session, ordinal, due, sent, received
   (monotonic ns).  Closed-loop requests are due when they are sent. *)
let fields = 6

type record = {
  mutable rows : int array;
  mutable n : int;
  mutable sessions : session list;  (** completed, newest first *)
  mutable failed : int;
  mutable errors : string list;
}

let recorder () = { rows = Array.make (fields * 4096) 0; n = 0; sessions = []; failed = 0; errors = [] }

let note r ~session ~ordinal kind ~due ~sent ~recv =
  if (r.n + 1) * fields > Array.length r.rows then begin
    let a = Array.make (2 * Array.length r.rows) 0 in
    Array.blit r.rows 0 a 0 (r.n * fields);
    r.rows <- a
  end;
  let o = r.n * fields in
  r.rows.(o) <- kind_code kind;
  r.rows.(o + 1) <- session;
  r.rows.(o + 2) <- ordinal;
  r.rows.(o + 3) <- due;
  r.rows.(o + 4) <- sent;
  r.rows.(o + 5) <- recv;
  r.n <- r.n + 1

let failure r s line =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then
    r.errors <- Printf.sprintf "session %d: %s" s.id line :: r.errors

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)

(* Run one session to completion on [c], recording every request and
   passing each request and reply to [log].  Returns [false] if the
   session failed. *)
let run_session ?(log = fun _ _ -> ()) r c s =
  let rec go () =
    if s.step = Done then true
    else
      let kind, payload = request s in
      let sent = Span.now () in
      let line = call c payload in
      let recv = Span.now () in
      log payload line;
      let ordinal = s.ordinal in
      let ok =
        match advance s line with
        | () -> true
        | exception Unexpected l ->
          failure r s l;
          false
      in
      note r ~session:s.id ~ordinal kind ~due:sent ~sent ~recv;
      ok && go ()
  in
  let ok = go () in
  if ok then r.sessions <- s :: r.sessions;
  ok

(* Closed loop: run whole rounds back to back until [deadline]; a round
   under way at the deadline is finished, so every connection's totals
   are whole rounds of the same mix.  Returns the records and the number
   of rounds. *)
let closed_loop ~deadline ~strategy ~instances ~next_round c =
  let r = recorder () in
  let rounds = ref 0 in
  while Span.now () < deadline do
    List.iter
      (fun spec -> ignore (run_session r c (session strategy instances spec)))
      (next_round ());
    incr rounds
  done;
  (r, !rounds)

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)

(* Sessions arrive at fixed times whether or not earlier ones are done:
   [arrivals] lists (monotonic ns, connection index, session) in time
   order.  Sessions share their connection, each with at most one
   request in flight, and replies return in request order.  A request
   is due when its session arrives (the start) or when the reply to its
   predecessor came back; its latency is measured from then, so a
   stalled tier or a late driver shows in the figures instead of
   thinning the load.

   One thread drives every connection and polls rather than sleeps:
   the driver has its CPU to itself, and a sleeping vCPU wakes late and
   unevenly (see WORKLOADS.md). *)
let open_loop ~strategy ~instances conns (arrivals : (int * int * W.spec) list) =
  let r = recorder () in
  let conns = Array.of_list conns in
  let inflight = Array.map (fun _ -> Queue.create ()) conns in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let pending = ref arrivals in
  let ready = Queue.create () in
  let live = ref 0 in
  let on_reply k recv line =
    let s, kind, due, sent = Queue.pop inflight.(k) in
    let ordinal = s.ordinal in
    (match advance s line with
    | () ->
      if s.step = Done then begin
        decr live;
        r.sessions <- s :: r.sessions
      end
      else Queue.push (s, k, recv) ready
    | exception Unexpected l ->
      failure r s l;
      decr live);
    note r ~session:s.id ~ordinal kind ~due ~sent ~recv
  in
  while !pending <> [] || !live > 0 do
    let now = Span.now () in
    let rec admit () =
      match !pending with
      | (at, k, spec) :: rest when at <= now ->
        pending := rest;
        incr live;
        Queue.push (session strategy instances spec, k, at) ready;
        admit ()
      | _ -> ()
    in
    admit ();
    while not (Queue.is_empty ready) do
      let s, k, due = Queue.pop ready in
      let kind, payload = request s in
      let sent = Span.now () in
      send conns.(k) payload;
      Queue.push (s, kind, due, sent) inflight.(k)
    done;
    let readable, _, _ = Unix.select fds [] [] 0. in
    Array.iter (fun c -> if List.mem c.fd readable then fill c) conns;
    (* Every reply read so far arrived by now, however long the ones
       before it take to process. *)
    let recv = Span.now () in
    Array.iteri
      (fun k c ->
        let rec drain () =
          match buffered_line c with
          | Some line ->
            on_reply k recv line;
            drain ()
          | None -> ()
        in
        drain ())
      conns
  done;
  r
