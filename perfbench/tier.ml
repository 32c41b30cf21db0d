(* The tier host: one serving role per process, composed from the same
   public functions [jim serve] and [jim router] compose, with the
   library defaults they use — [Store.open_dir], [Service.create
   ~persist], [Wire.serve_handler], and [Router.create] over
   [Front.wire_upstream].  The parity check in [Parity] holds this host
   to byte-identical replies against the real binaries.

   The driver controls the process over stdin/stdout, outside the
   protocol: the host prints [ready] once it listens; [mark] snapshots
   its counters (and clears spans) at the start of a measured phase;
   [dump PATH] writes the counters and spans to [PATH]; end of input
   shuts it down.  Each command is acknowledged with [ok].

   With [--trace], spans are recorded around the calls into each layer:
   the wire handler split into decode, [Service.handle] and encode; the
   persist hook around [Store.record]; the store's [Io.t] writes, fsyncs
   and renames; the router's handler and its upstream calls.  Without
   it, the handler, hook and I/O are the library's own, unwrapped. *)

module P = Jim_api.Protocol
module Service = Jim_server.Service
module Wire = Jim_server.Wire
module Netstats = Jim_server.Netstats
module Store = Jim_store.Store
module Io = Jim_store.Io
module Router = Jim_shard.Router
module Front = Jim_shard.Front
module Catalog = Jim_catalog.Catalog
module Metrics = Jim_core.Metrics

type role =
  | Server  (** in-memory [jim serve] *)
  | Durable of string  (** [jim serve --data-dir DIR] *)
  | Router of (string * Wire.address) list  (** [jim router --shard ...] *)

let session_of_request = function
  | P.Get_question { session }
  | P.Top_questions { session; _ }
  | P.Answer { session; _ }
  | P.Undo { session }
  | P.Explain { session; _ }
  | P.Result { session }
  | P.Stats { session }
  | P.Get_transcript { session }
  | P.End_session { session }
  | P.Start_pinned { session; _ }
  | P.Labeler_attach { session }
  | P.Labeler_poll { session; _ }
  | P.Vote { session; _ }
  | P.Crowd_stats { session } ->
    Some session
  | P.Start_session _ | P.Register_instance _ | P.Catalog_stats
  | P.Repl_install _ | P.Repl_rotate _ | P.Repl_batch _ | P.Repl_status
  | P.Promote | P.Ring_status ->
    None

let request_key req resp =
  match (session_of_request req, resp) with
  | Some s, _ -> Some s
  | None, P.Started { session; _ } -> Some session
  | None, _ -> None

let close_request key own =
  match key with
  | Some session ->
    Span.close_request ~session ~ordinal:(Span.next_ordinal session) own
  | None -> Span.discard_request ()

(* Mirrors [Service.handle_line_status] (decode, handle, encode; a
   payload that does not decode is answered with its error) with a span
   around each step. *)
let traced_service svc payload =
  Span.open_request ();
  let t0 = Span.now () in
  let decoded = P.request_of_string payload in
  let t1 = Span.now () in
  let resp = match decoded with Error e -> P.Failed e | Ok req -> Service.handle svc req in
  let t2 = Span.now () in
  let line = P.response_to_string resp in
  let t3 = Span.now () in
  let key = match decoded with Ok req -> request_key req resp | Error _ -> None in
  close_request key
    [
      ("handler", t0, t3, 0);
      ("decode", t0, t1, 0);
      ("handle", t1, t2, 0);
      ("encode", t2, t3, 0);
    ];
  (line, Result.is_ok decoded)

(* The router decodes inside [Router.handle_line]; the key is found by a
   second decode outside the span. *)
let traced_router router payload =
  Span.open_request ();
  let t0 = Span.now () in
  let ((line, _) as reply) = Router.handle_line router payload in
  let t1 = Span.now () in
  let key =
    match (P.request_of_string payload, P.response_of_string line) with
    | Ok req, Ok resp -> request_key req resp
    | _ -> None
  in
  close_request key [ ("handler", t0, t1, 0) ];
  reply

let traced_persist st ev =
  let gen = Store.generation st in
  let t0 = Span.now () in
  Store.record st ev;
  let t1 = Span.now () in
  Span.child "persist" t0 t1 0;
  if Store.generation st <> gen then Span.child "checkpoint" t0 t1 0

let timed name f =
  let t0 = Span.now () in
  let r = f () in
  Span.child name t0 (Span.now ()) 0;
  r

let traced_io (io : Io.t) : Io.t =
  let wrap path (f : Io.file) : Io.file =
    let kind =
      if String.starts_with ~prefix:"journal" (Filename.basename path) then
        "journal"
      else "snapshot"
    in
    {
      f with
      Io.write =
        (fun buf off len ->
          let t0 = Span.now () in
          let n = f.Io.write buf off len in
          Span.child ("io.write." ^ kind) t0 (Span.now ()) n;
          n);
      fsync = (fun () -> timed ("io.fsync." ^ kind) f.Io.fsync);
    }
  in
  {
    io with
    Io.create = (fun path -> wrap path (io.Io.create path));
    open_append =
      (fun path ->
        Result.map (fun (f, size) -> (wrap path f, size)) (io.Io.open_append path));
    rename = (fun a b -> timed "io.rename" (fun () -> io.Io.rename a b));
  }

let traced_upstream (u : Router.upstream) =
  let call = u.Router.call in
  u.Router.call <- (fun line -> timed ("upstream." ^ u.Router.name) (fun () -> call line))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' status)

let counters ~catalog ~store () =
  let t = Unix.times () in
  let gc = Gc.quick_stat () in
  let m = Metrics.snapshot () in
  let n = Netstats.snapshot () in
  let f = float_of_int in
  [
    ("cpu_s", t.Unix.tms_utime +. t.Unix.tms_stime);
    ("minor_words", gc.Gc.minor_words);
    ("peak_rss_kb", peak_rss_kb ());
    ("meets", f m.Metrics.meets);
    ("classify_calls", f m.Metrics.classify_calls);
    ("cache_hits", f m.Metrics.cache_hits);
    ("cache_misses", f m.Metrics.cache_misses);
    ("picks", f m.Metrics.picks);
    ("pick_time_ns", f m.Metrics.pick_time_ns);
    ("net_requests", f n.Netstats.requests);
    ("flushes", f n.Netstats.flushes);
    ("writes_coalesced", f n.Netstats.writes_coalesced);
    ("bytes", f (n.Netstats.bytes_in + n.Netstats.bytes_out));
  ]
  @ (match catalog with
    | None -> []
    | Some c ->
      let s = Catalog.stats c in
      [
        ("catalog_hits", f s.P.hits);
        ("catalog_misses", f s.P.misses);
        ("catalog_derivations", f s.P.derivations);
      ])
  @
  match store with
  | None -> []
  | Some st ->
    let c = Store.commit_stats st in
    [
      ("generation", f (Store.generation st));
      ("commit_batches", f c.Jim_store.Journal.batches);
      ("commit_records", f c.Jim_store.Journal.records);
    ]

(* ------------------------------------------------------------------ *)
(* The process                                                         *)

(* [jim serve], with [--data-dir dir] when [dir] is given. *)
let service ~trace dir =
  let opened =
    Option.map
      (fun dir ->
        let io = if trace then Some (traced_io Io.real) else None in
        match Store.open_dir ?io dir with
        | Ok opened -> opened
        | Error e -> failwith ("store: " ^ e))
      dir
  in
  let persist =
    Option.map
      (fun (st, _) -> if trace then traced_persist st else Store.record st)
      opened
  in
  let svc = Service.create ?persist () in
  Option.iter
    (fun (_, recovered) ->
      match Service.restore svc recovered with
      | Ok _ -> ()
      | Error e -> failwith ("restore: " ^ e))
    opened;
  let store = Option.map fst opened in
  ( Some (Service.catalog svc),
    store,
    (if trace then traced_service svc else Service.handle_line_status svc),
    Some (fun () -> Service.sweep svc),
    fun () -> Option.iter Store.close store )

(* [jim router --shard NAME=ADDR ...]. *)
let router ~trace shards =
  let upstreams =
    List.map (fun (name, primary) -> Front.wire_upstream ~name ~primary ()) shards
  in
  if trace then List.iter traced_upstream upstreams;
  let router =
    match Router.create ~shards:upstreams () with
    | Ok r -> r
    | Error e -> failwith ("router: " ^ e)
  in
  ( None,
    None,
    (if trace then traced_router router else Router.handle_line router),
    None,
    fun () -> Router.close router )

let run ~role ~listen ~trace =
  let listen = Wire.Unix_path listen in
  let catalog, store, handler, sweep, close =
    match role with
    | Server -> service ~trace None
    | Durable dir -> service ~trace (Some dir)
    | Router shards -> router ~trace shards
  in
  let server = Wire.serve_handler ?sweep handler listen in
  print_endline "ready";
  let base = ref (counters ~catalog ~store ()) in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some "mark" ->
      base := counters ~catalog ~store ();
      Span.clear ();
      print_endline "ok";
      loop ()
    | Some cmd when String.starts_with ~prefix:"dump " cmd ->
      let path = String.sub cmd 5 (String.length cmd - 5) in
      let now = counters ~catalog ~store () in
      Out_channel.with_open_text path (fun oc ->
          List.iter2
            (fun (k, b) (_, v) -> Printf.fprintf oc "counter %s %.17g %.17g\n" k b v)
            !base now;
          Span.write oc);
      print_endline "ok";
      loop ()
    | Some cmd -> failwith ("tier: unknown command " ^ cmd)
  in
  loop ();
  Wire.shutdown server;
  close ()
