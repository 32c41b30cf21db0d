(* The serving benchmark.

     perfbench.exe drive --workload explore|durable|routed --seed N
                         --seconds S --trace 0|1 --jim PATH
     perfbench.exe tier --role server|durable|router --listen PATH ...

   [drive] is the whole benchmark run (run.py builds and starts it):
   host probe, reference, parity check, set-up, measured phase, output
   check, and one JSON result as the last line of stdout.  [tier] is a
   serving process the driver launches (see [Tier]).

   A run with [--trace 0] reports the end-to-end metrics.  A run with
   [--trace 1] measures the workload twice on fresh tiers, untraced and
   then traced, each for half of [--seconds], and reports the per-layer
   metrics of the traced half plus what tracing cost. *)

module P = Jim_api.Protocol
module W = Workload
module H = Harness

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = pct (sorted (Array.of_list xs)) 0.5
let ratio a b = if b = 0. then 0. else a /. b
let us ns = float_of_int ns /. 1000.

(* ------------------------------------------------------------------ *)
(* Host record                                                         *)

(* A fixed allocation-heavy kernel: build and fold a 50k-key balanced
   map.  Timed before and after every run, so a slow or drifting host
   shows in the data. *)
let host_kernel () =
  let module M = Map.Make (Int) in
  let t0 = Span.now () in
  let x = ref 12345 and m = ref M.empty in
  for i = 0 to 49_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := M.add !x i !m
  done;
  ignore (Sys.opaque_identity (M.fold (fun k v acc -> acc + (k lxor v)) !m 0));
  float_of_int (Span.now () - t0) /. 1e6

let host_ref () = List.init 3 (fun _ -> host_kernel ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let read_first path =
  try String.trim (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> "unknown"

let fingerprint ~cpus (place : H.placement) kind =
  let pinned =
    match kind with
    | W.Routed ->
      Printf.sprintf "driver+router cpu %d, shards cpu %d" place.H.driver_cpu
        place.H.tier_cpu
    | W.Explore | W.Durable ->
      Printf.sprintf "driver cpu %d, server cpu %d" place.H.driver_cpu place.H.tier_cpu
  in
  [
    ("nproc", string_of_int cpus);
    ("ocaml", json_string Sys.ocaml_version);
    ("kernel", json_string (read_first "/proc/sys/kernel/osrelease"));
    ("placement", json_string pinned);
  ]

(* ------------------------------------------------------------------ *)
(* Measured phases                                                     *)

type dump = {
  proc : string;
  counters : (string * (float * float)) list;  (** base, now *)
  spans : Span.t list;
}

let delta d k = match List.assoc_opt k d.counters with Some (b, n) -> n -. b | None -> 0.
let total d k = match List.assoc_opt k d.counters with Some (_, n) -> n | None -> 0.
let sum ds f = List.fold_left (fun acc d -> acc +. f d) 0. ds

let read_dump proc path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let counters =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "counter"; k; b; n ] -> Some (k, (float_of_string b, float_of_string n))
        | _ -> None)
      lines
  in
  { proc; counters; spans = List.filter_map Span.of_line lines }

type phase = {
  records : Client.record list;
  start : int;
  dumps : dump list;  (** in the tier's process order *)
  rounds : int;  (** closed loop: rounds completed over all connections *)
}

(* Open-loop arrival rate of [durable], sessions/s: about a third of the
   closed-loop capacity of the same script on a 2-vCPU VM, so queues
   stay short and latency is measured below saturation. *)
let durable_rate = 100.

(* Poisson arrivals conditioned on their number: the gaps are drawn
   exponential and scaled so the last session arrives at [seconds], so
   every seed offers the same load over the same span.  Sessions
   alternate between the two connections.  Times are ns from the start
   of the measured phase. *)
let schedule ~seconds rng =
  let rounds = max 1 (int_of_float (Float.round (durable_rate *. seconds /. float_of_int W.n_instances))) in
  let specs = List.concat (List.init rounds (fun _ -> W.round W.Durable rng)) in
  let gaps = List.map (fun _ -> -.Float.log (1. -. Random.State.float rng 1.)) specs in
  let scale = seconds *. 1e9 /. List.fold_left ( +. ) 0. gaps in
  let t = ref 1e6 in
  List.mapi
    (fun i (spec, gap) ->
      t := !t +. (gap *. scale);
      (int_of_float !t, i mod 2, spec))
    (List.combine specs gaps)

let measure kind ~dir ~tag ~seconds ~rng instances (tier : H.tier) conns =
  List.iter (fun p -> H.command p "mark") tier.H.procs;
  let strategy = W.strategy kind in
  let arrivals = match kind with W.Durable -> schedule ~seconds rng | W.Explore | W.Routed -> [] in
  let start = Span.now () in
  let c0, c1 = match conns with [ a; b ] -> (a, b) | _ -> invalid_arg "measure" in
  let records, rounds =
    match kind with
    | W.Explore | W.Routed ->
      let deadline = start + int_of_float (seconds *. 1e9) in
      (* Each connection draws its own round orders, so the sessions a
         connection runs never depend on how the other one is doing. *)
      let rngs = Array.init 2 (fun _ -> Random.State.split rng) in
      let loop k c () =
        Client.closed_loop ~deadline ~strategy ~instances
          ~next_round:(fun () -> W.round kind rngs.(k))
          c
      in
      let other = ref None in
      let th = Thread.create (fun () -> other := Some (loop 1 c1 ())) () in
      let r0, n0 = loop 0 c0 () in
      Thread.join th;
      let r1, n1 = Option.get !other in
      ([ r0; r1 ], n0 + n1)
    | W.Durable ->
      let arrivals = List.map (fun (t, k, spec) -> (start + t, k, spec)) arrivals in
      ([ Client.open_loop ~strategy ~instances [ c0; c1 ] arrivals ], 0)
  in
  let dumps =
    List.map
      (fun (p : H.proc) ->
        let path = Filename.concat dir (Printf.sprintf "%sdump-%s" tag p.H.name) in
        H.command p ("dump " ^ path);
        read_dump p.H.name path)
      tier.H.procs
  in
  { records; start; dumps; rounds }

let rows ph f =
  List.concat_map
    (fun (r : Client.record) ->
      List.init r.Client.n (fun i ->
          let o = i * Client.fields in
          let g j = r.Client.rows.(o + j) in
          f ~kind:(g 0) ~session:(g 1) ~ordinal:(g 2) ~due:(g 3) ~sent:(g 4) ~recv:(g 5)))
    ph.records

let requests ph = List.fold_left (fun a (r : Client.record) -> a + r.Client.n) 0 ph.records
let failed ph = List.fold_left (fun a (r : Client.record) -> a + r.Client.failed) 0 ph.records
let sessions ph = List.concat_map (fun (r : Client.record) -> r.Client.sessions) ph.records

(* Latencies (us) of one kind of request, in the order they were due. *)
let latencies ph code =
  rows ph (fun ~kind ~session:_ ~ordinal:_ ~due ~sent:_ ~recv ->
      if kind = code then Some (due, us (recv - due)) else None)
  |> List.filter_map Fun.id |> List.sort compare |> List.map snd |> Array.of_list

(* The tail, read so that a host which stalls now and then does not set
   it alone: the p99 of every run of [tail_chunk] consecutive requests
   (ten samples beyond it), and the median of those. *)
let tail_chunk = 1000

let p99 lat =
  let n = Array.length lat in
  let k = max 1 (n / tail_chunk) in
  median
    (List.init k (fun i ->
         let lo = i * n / k and hi = (i + 1) * n / k in
         pct (sorted (Array.sub lat lo (hi - lo))) 0.99))

let p50 lat = pct (sorted lat) 0.5

(* ------------------------------------------------------------------ *)
(* Output check                                                        *)

(* Every session asked as many questions as [Session.run] does on its
   instance, and its result infers a predicate that selects exactly the
   goal's tuples.  Sessions on one instance are deterministic, so each
   distinct result reply is decoded once. *)
let check_outputs ph =
  let seen = Hashtbl.create 8 in
  let verdict (s : Client.session) =
    let inst = s.Client.inst in
    match Hashtbl.find_opt seen s.Client.result with
    | Some v -> v
    | None ->
      let v =
        match P.response_of_string s.Client.result with
        | Ok (P.Outcome o) ->
          if o.Jim_core.Session.contradiction then Some "result reports a contradiction"
          else if o.Jim_core.Session.interactions <> inst.W.expected then
            Some
              (Printf.sprintf "result counts %d questions, Session.run asks %d"
                 o.Jim_core.Session.interactions inst.W.expected)
          else if not (W.selects_goal inst o.Jim_core.Session.query) then
            Some "inferred predicate does not select the goal's tuples"
          else None
        | _ -> Some ("result reply is not an outcome: " ^ s.Client.result)
      in
      Hashtbl.replace seen s.Client.result v;
      v
  in
  List.filter_map
    (fun (s : Client.session) ->
      if s.Client.asked <> s.Client.inst.W.expected then
        Some
          (Printf.sprintf "session %d asked %d questions, Session.run asks %d" s.Client.id
             s.Client.asked s.Client.inst.W.expected)
      else Option.map (Printf.sprintf "session %d: %s" s.Client.id) (verdict s))
    (sessions ph)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

(* The absolute tails behind the [*_p99_over_p50] metrics, with their
   sample counts. *)
let tails ph =
  List.map
    (fun (name, k) ->
      let lat = latencies ph (Client.kind_code k) in
      (name, p99 lat, Array.length lat))
    [ ("next_question_p99_us", Client.Next); ("answer_p99_us", Client.Answer) ]

let e2e ph ~setups =
  let n = requests ph in
  let ss = sessions ph in
  let last = List.fold_left max ph.start (rows ph (fun ~kind:_ ~session:_ ~ordinal:_ ~due:_ ~sent:_ ~recv -> recv)) in
  let elapsed = float_of_int (last - ph.start) *. 1e-9 in
  let of_kind k = latencies ph (Client.kind_code k) in
  let start = of_kind Client.Start and next = of_kind Client.Next and answer = of_kind Client.Answer in
  let asked = List.fold_left (fun a (s : Client.session) -> a + s.Client.asked) 0 ss in
  let nf = float_of_int n in
  [
    ("setup_s", "s", median setups, List.length setups);
    ("sessions_per_s", "1/s", ratio (float_of_int (List.length ss)) elapsed, List.length ss);
    ("start_p50_us", "us", p50 start, Array.length start);
    ("next_question_p50_us", "us", p50 next, Array.length next);
    ("next_question_p99_over_p50", "ratio", ratio (p99 next) (p50 next), Array.length next);
    ("answer_p50_us", "us", p50 answer, Array.length answer);
    ("answer_p99_over_p50", "ratio", ratio (p99 answer) (p50 answer), Array.length answer);
    ("questions_per_session", "count", ratio (float_of_int asked) (float_of_int (List.length ss)), List.length ss);
    ("served_share", "ratio", ratio (float_of_int (n - failed ph)) nf, n);
    ("cpu_us_per_request", "us", ratio (sum ph.dumps (fun d -> delta d "cpu_s") *. 1e6) nf, n);
    ("peak_rss_mb", "MB", sum ph.dumps (fun d -> total d "peak_rss_kb") /. 1024., List.length ph.dumps);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

let key (s : Span.t) = (s.Span.session, s.Span.ordinal)

let group spans =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let k = key s in
      Hashtbl.replace h k (s :: Option.value ~default:[] (Hashtbl.find_opt h k)))
    spans;
  h

let named name spans = List.filter (fun (s : Span.t) -> s.Span.name = name) spans
let prefixed p spans = List.filter (fun (s : Span.t) -> String.starts_with ~prefix:p s.Span.name) spans
let durations_us spans = sorted (Array.of_list (List.map (fun s -> us (Span.duration s)) spans))

(* Which span each child must lie inside, in the same process and
   request. *)
let parent_of name =
  if List.mem name [ "decode"; "handle"; "encode" ] then Some "handler"
  else if name = "persist" || name = "checkpoint" then Some "handle"
  else if String.starts_with ~prefix:"io." name then Some "persist"
  else if String.starts_with ~prefix:"upstream." name then Some "handler"
  else None

type span_check = { mutable checked : int; mutable broken : string list }

let violation c msg = if List.length c.broken < 5 then c.broken <- msg :: c.broken

let per_layer kind ~untraced ~(traced : phase) ~host_ms ~check =
  let service_dumps, router_dump =
    match (kind, traced.dumps) with
    | W.Routed, r :: shards -> (shards, Some r)
    | _, ds -> (ds, None)
  in
  let front_dump = match router_dump with Some r -> r | None -> List.hd service_dumps in
  let n = float_of_int (requests traced) in
  (* Containment and non-negative self time, per process and request. *)
  let groups = List.map (fun d -> (d, group d.spans)) traced.dumps in
  List.iter
    (fun (d, g) ->
      Hashtbl.iter
        (fun (session, ordinal) spans ->
          List.iter
            (fun (s : Span.t) ->
              check.checked <- check.checked + 1;
              if Span.duration s < 0 then violation check (d.proc ^ ": negative span " ^ s.Span.name);
              match parent_of s.Span.name with
              | None -> ()
              | Some p ->
                if not (List.exists (fun par -> Span.inside ~parent:par s) (named p spans)) then
                  violation check
                    (Printf.sprintf "%s: %s of request %d/%d lies outside its %s" d.proc
                       s.Span.name session ordinal p))
            spans)
        g)
    groups;
  let self name child_prefix dumps =
    sorted
      (Array.of_list
         (List.concat_map
            (fun d ->
              let g = group d.spans in
              List.map
                (fun (p : Span.t) ->
                  let cs = prefixed child_prefix (Hashtbl.find g (key p)) in
                  let v = Span.self_time p cs in
                  if v < 0 then violation check (d.proc ^ ": negative self time of " ^ name);
                  us v)
                (named name d.spans))
            dumps))
  in
  (* Transit: what the client waited beyond the front handler, per
     request.  The handler must lie inside the client's send → receive
     interval (one monotonic clock for every process). *)
  let front = group front_dump.spans in
  let transit =
    sorted
      (Array.of_list
         (List.filter_map Fun.id
            (rows traced (fun ~kind:_ ~session ~ordinal ~due:_ ~sent ~recv ->
                 match Hashtbl.find_opt front (session, ordinal) with
                 | None ->
                   violation check (Printf.sprintf "request %d/%d has no handler span" session ordinal);
                   None
                 | Some spans -> (
                   match named "handler" spans with
                   | [ h ] ->
                     check.checked <- check.checked + 1;
                     if h.Span.t0 < sent || h.Span.t1 > recv then
                       violation check
                         (Printf.sprintf "handler of request %d/%d lies outside the client's wait"
                            session ordinal);
                     Some (us (recv - sent - Span.duration h))
                   | _ ->
                     violation check
                       (Printf.sprintf "request %d/%d has %d handler spans" session ordinal
                          (List.length (named "handler" spans)));
                     None)))))
  in
  (* A shard's handler lies inside the router's upstream call. *)
  (match router_dump with
  | None -> ()
  | Some r ->
    let rg = group r.spans in
    List.iter
      (fun d ->
        List.iter
          (fun (h : Span.t) ->
            check.checked <- check.checked + 1;
            let ups = prefixed "upstream." (Option.value ~default:[] (Hashtbl.find_opt rg (key h))) in
            if not (List.exists (fun u -> Span.inside ~parent:u h) ups) then
              violation check
                (Printf.sprintf "%s handler of request %d/%d lies outside the router's upstream call"
                   d.proc h.Span.session h.Span.ordinal))
          (named "handler" d.spans))
      service_dumps);
  if Array.exists (fun t -> t < 0.) transit then violation check "negative wire transit";
  let svc_spans name = List.concat_map (fun d -> named name d.spans) service_dumps in
  let persists = svc_spans "persist" in
  let records = float_of_int (List.length persists) in
  let journal_writes = svc_spans "io.write.journal" in
  let fsyncs = svc_spans "io.fsync.journal" in
  let checkpoints = svc_spans "checkpoint" in
  let sd k = sum service_dumps (fun d -> delta d k) in
  let all k = sum traced.dumps (fun d -> delta d k) in
  let questions =
    float_of_int (List.fold_left (fun a (s : Client.session) -> a + s.Client.asked) 0 (sessions traced))
  in
  let upstream_counts =
    List.map
      (fun shard -> float_of_int (List.length (match router_dump with Some r -> named ("upstream." ^ shard) r.spans | None -> [])))
      [ "a"; "b" ]
  in
  let late =
    sorted
      (Array.of_list
         (rows traced (fun ~kind:_ ~session:_ ~ordinal:_ ~due ~sent ~recv:_ -> us (sent - due))))
  in
  let mean_latency ph =
    let ls = rows ph (fun ~kind:_ ~session:_ ~ordinal:_ ~due ~sent:_ ~recv -> float_of_int (recv - due)) in
    ratio (List.fold_left ( +. ) 0. ls) (float_of_int (List.length ls))
  in
  let router_metric f = match router_dump with Some r -> f r | None -> 0. in
  [
    ("wire.transit_p50_us", "us", pct transit 0.5);
    ("wire.flushes_per_request", "count", ratio (all "flushes") n);
    ("wire.coalesced_share", "ratio", ratio (all "writes_coalesced") (all "net_requests"));
    ("wire.bytes_per_request", "bytes", ratio (all "bytes") n);
    ("protocol.decode_p50_us", "us", pct (durations_us (svc_spans "decode")) 0.5);
    ("protocol.encode_p50_us", "us", pct (durations_us (svc_spans "encode")) 0.5);
    ("service.self_p50_us", "us", pct (self "handle" "persist" service_dumps) 0.5);
    ("service.minor_words_per_request", "words", ratio (sd "minor_words") n);
    ("catalog.hit_share", "ratio", ratio (sd "catalog_hits") (sd "catalog_hits" +. sd "catalog_misses"));
    ("catalog.derivations", "count", sum service_dumps (fun d -> total d "catalog_derivations"));
    ("scorer.pick_us_per_question", "us", ratio (sd "pick_time_ns" /. 1000.) questions);
    ("scorer.classify_per_pick", "count", ratio (sd "classify_calls") (sd "picks"));
    ("scorer.meets_per_pick", "count", ratio (sd "meets") (sd "picks"));
    ("scorer.cache_hit_share", "ratio", ratio (sd "cache_hits") (sd "cache_hits" +. sd "cache_misses"));
    ("store.record_p50_us", "us", pct (durations_us persists) 0.5);
    ("store.record_p99_us", "us", pct (durations_us persists) 0.99);
    ("journal.fsync_p50_us", "us", pct (durations_us fsyncs) 0.5);
    ("journal.fsyncs_per_record", "count", ratio (float_of_int (List.length fsyncs)) records);
    ("journal.records_per_batch", "count", ratio records (float_of_int (List.length journal_writes)));
    ("journal.bytes_per_record", "bytes",
      ratio (float_of_int (List.fold_left (fun a (s : Span.t) -> a + s.Span.bytes) 0 journal_writes)) records);
    ("store.checkpoints", "count", float_of_int (List.length checkpoints));
    ("store.checkpoint_ms", "ms", pct (durations_us checkpoints) 0.5 /. 1000.);
    ("router.self_p50_us", "us", router_metric (fun r -> pct (self "handler" "upstream." [ r ]) 0.5));
    ("front.upstream_call_p50_us", "us", router_metric (fun r -> pct (durations_us (prefixed "upstream." r.spans)) 0.5));
    ("router.minor_words_per_request", "words", router_metric (fun r -> ratio (delta r "minor_words") n));
    ("router.shard_balance", "ratio",
      router_metric (fun _ -> ratio (List.fold_left Float.min infinity upstream_counts) (List.fold_left Float.max 0. upstream_counts)));
    ("host.ref_ms", "ms", host_ms);
    ("driver.late_p99_us", "us", (match kind with W.Durable -> pct late 0.99 | _ -> 0.));
    ("trace.overhead_share", "ratio", ratio (mean_latency traced) (mean_latency untraced) -. 1.);
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let result ~correct ~attempted ~failed metrics =
  obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", obj (List.map (fun (k, u, v) -> (k, obj [ ("value", num v); ("unit", json_string u) ])) metrics));
    ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let drive ~kind ~seed ~seconds ~trace ~jim =
  let cpus = List.length (H.allowed_cpus ()) in
  let place = H.placement () in
  ignore (H.pin_self place.H.driver_cpu);
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      H.stop_all ();
      H.remove_tree dir);
  let rng = Random.State.make [| seed |] in
  let ref_before = host_ref () in
  (* Outside every timed phase: the reference question counts (inside
     [W.instances]) and the parity check. *)
  let instances = W.instances kind in
  let parity = H.parity kind ~place ~jim ~dir instances (Random.State.split rng) in
  let parity_errors = match parity with Ok _ -> [] | Error e -> [ e ] in
  (* [setups] set-ups, each timed; all but the last are torn down, and
     the last tier is measured. *)
  let phase ~tag ~trace ~setups ~seconds =
    let rec go i secs =
      let tag = Printf.sprintf "%s%d-" tag i in
      let tier, conns, s = H.setup kind ~place ~dir ~tag ~trace instances in
      if i + 1 < setups then begin
        H.teardown (tier, conns);
        go (i + 1) (s :: secs)
      end
      else (tier, conns, s :: secs)
    in
    let tier, conns, secs = go 0 [] in
    let ph = measure kind ~dir ~tag ~seconds ~rng instances tier conns in
    H.teardown (tier, conns);
    (ph, secs)
  in
  let phases, metrics, samples, setups, span_check =
    if not trace then begin
      let ph, setups = phase ~tag:"m" ~trace:false ~setups:9 ~seconds in
      let m = e2e ph ~setups in
      ([ ph ], List.map (fun (k, u, v, _) -> (k, u, v)) m, m, setups, None)
    end
    else begin
      let untraced, _ = phase ~tag:"u" ~trace:false ~setups:1 ~seconds:(seconds /. 2.) in
      let traced, _ = phase ~tag:"t" ~trace:true ~setups:1 ~seconds:(seconds /. 2.) in
      let check = { checked = 0; broken = [] } in
      if not (Span.self_test ()) then violation check "span arithmetic self-test failed";
      let host_ms = median (ref_before @ host_ref ()) in
      ([ untraced; traced ], per_layer kind ~untraced ~traced ~host_ms ~check, [], [], Some check)
    end
  in
  let ref_after = host_ref () in
  let errors =
    parity_errors
    @ List.concat_map check_outputs phases
    @ List.concat_map (fun ph -> List.concat_map (fun (r : Client.record) -> r.Client.errors) ph.records) phases
    @ match span_check with Some c -> List.rev c.broken | None -> []
  in
  let attempted = List.fold_left (fun a ph -> a + requests ph) 0 phases in
  let nfailed = List.fold_left (fun a ph -> a + failed ph) 0 phases in
  let correct = errors = [] && nfailed = 0 && attempted > 0 in
  let detail =
    obj
      [
        ("workload", json_string (W.name kind));
        ("seed", string_of_int seed);
        ("trace", string_of_bool trace);
        ("host", obj (fingerprint ~cpus place kind));
        ("host_ref_ms", obj [ ("before", num (median ref_before)); ("after", num (median ref_after)) ]);
        ("parity_replies_identical", string_of_int (Result.value ~default:0 parity));
        ("rounds", "[" ^ String.concat ", " (List.map (fun ph -> string_of_int ph.rounds) phases) ^ "]");
        ("sessions", string_of_int (List.length (List.concat_map sessions phases)));
        ("setups_s", "[" ^ String.concat ", " (List.rev_map num setups) ^ "]");
        ( "tails",
          obj
            (List.map
               (fun (k, v, n) ->
                 (k, obj [ ("value", num v); ("unit", json_string "us"); ("samples", string_of_int n) ]))
               (tails (List.hd phases))) );
        ( "samples",
          obj (List.map (fun (k, _, _, n) -> (k, string_of_int n)) samples) );
        ("spans_checked", match span_check with Some c -> string_of_int c.checked | None -> "0");
        ("errors", "[" ^ String.concat ", " (List.map json_string errors) ^ "]");
      ]
  in
  print_endline detail;
  print_endline (result ~correct ~attempted ~failed:nfailed metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: perfbench.exe drive --workload explore|durable|routed --seed N --seconds S \
     --trace 0|1 --jim PATH\n\
    \       perfbench.exe tier --role server|durable|router --listen PATH [--store DIR] \
     [--shard NAME=ADDR]... [--cpu N] --trace 0|1";
  exit 2

let rec opts acc = function
  | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
  | [] -> List.rev acc
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "drive" :: args -> (
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    match (W.kind_of_string (get "--workload"), int_of_string_opt (get "--seed"), float_of_string_opt (get "--seconds")) with
    | Some kind, Some seed, Some seconds when seconds > 0. ->
      drive ~kind ~seed ~seconds ~trace:(get "--trace" = "1") ~jim:(get "--jim")
    | _ -> usage ())
  | _ :: "tier" :: args ->
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    Option.iter (fun c -> ignore (H.pin_self (int_of_string c))) (List.assoc_opt "--cpu" o);
    let shards =
      List.filter_map
        (fun (k, v) ->
          if k <> "--shard" then None
          else
            match String.index_opt v '=' with
            | Some i -> (
              match Jim_server.Wire.address_of_string (String.sub v (i + 1) (String.length v - i - 1)) with
              | Ok a -> Some (String.sub v 0 i, a)
              | Error e -> failwith e)
            | None -> usage ())
        o
    in
    let role =
      match get "--role" with
      | "server" -> Tier.Server
      | "durable" -> Tier.Durable (get "--store")
      | "router" -> Tier.Router shards
      | _ -> usage ()
    in
    Tier.run ~role ~listen:(get "--listen") ~trace:(get "--trace" = "1")
  | _ -> usage ()
