(* Processes: launching the tier (the benchmark's own host, or the real
   [jim] binaries for the parity check), its CPU placement, set-up, and
   the parity check itself. *)

module P = Jim_api.Protocol
module W = Workload

external pin_self : int -> bool = "perfbench_pin_self"
external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"

(* Placement.  Ping-pong latency on a small VM depends on where the
   scheduler puts the two ends, so nothing is left to it: the driver
   (and the router, which is on the driver's side of the hop) runs on
   the first CPU this process may use and every serving process on the
   second.  With a single CPU everything shares it. *)
type placement = { driver_cpu : int; tier_cpu : int }

let placement () =
  match allowed_cpus () with
  | a :: b :: _ -> { driver_cpu = a; tier_cpu = b }
  | [ a ] -> { driver_cpu = a; tier_cpu = a }
  | [] -> { driver_cpu = 0; tier_cpu = 0 }

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

type proc = {
  name : string;
  pid : int;
  to_child : out_channel option;  (** its stdin: the control channel *)
  from_child : in_channel;
  mutable alive : bool;
}

let spawned : proc list ref = ref []

let spawn ?(control = true) name prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w =
    if control then
      let r, w = Unix.pipe ~cloexec:true () in
      (r, Some w)
    else (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0, None)
  in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let p =
    {
      name;
      pid;
      to_child = Option.map Unix.out_channel_of_descr in_w;
      from_child = Unix.in_channel_of_descr out_r;
      alive = true;
    }
  in
  spawned := p :: !spawned;
  p

(* Read the child's stdout until a line satisfying [ok]. *)
let rec expect p ok =
  match In_channel.input_line p.from_child with
  | Some line when ok line -> ()
  | Some _ -> expect p ok
  | None -> failwith (p.name ^ " exited before it was ready")

let command p cmd =
  match p.to_child with
  | None -> invalid_arg "command: no control channel"
  | Some oc ->
    output_string oc (cmd ^ "\n");
    flush oc;
    expect p (String.equal "ok")

(* A host process ends when its control channel closes; a real [jim]
   process is sent SIGTERM.  Either way it is reaped here. *)
let stop p =
  if p.alive then begin
    p.alive <- false;
    (match p.to_child with
    | Some oc -> close_out_noerr oc
    | None -> ( try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()));
    ignore (Unix.waitpid [] p.pid);
    close_in_noerr p.from_child
  end

let stop_all () =
  List.iter
    (fun p ->
      if p.alive then ( try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      stop p)
    !spawned;
  spawned := []

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* Tiers                                                               *)

type tier = {
  procs : proc list;
  front : string;  (** the socket clients talk to *)
  shards : string list;  (** shard sockets ([routed]), else [front] *)
}

let self_exe = Sys.executable_name

let host ~name ~cpu ~trace args =
  let args =
    ("tier" :: "--cpu" :: string_of_int cpu :: "--trace" :: (if trace then "1" else "0") :: args)
  in
  let p = spawn name self_exe args in
  expect p (String.equal "ready");
  p

(* Launch the benchmark's own tier for [kind] under [dir]; [tag] keeps
   the socket and store paths of successive launches apart. *)
let launch kind ~place ~dir ~tag ~trace =
  let path f = Filename.concat dir (tag ^ f) in
  let server name role extra =
    host ~name ~cpu:place.tier_cpu ~trace
      ([ "--role"; role; "--listen"; path (name ^ ".sock") ] @ extra)
  in
  match kind with
  | W.Explore ->
    let s = server "server" "server" [] in
    { procs = [ s ]; front = path "server.sock"; shards = [ path "server.sock" ] }
  | W.Durable ->
    let s = server "server" "durable" [ "--store"; path "store" ] in
    { procs = [ s ]; front = path "server.sock"; shards = [ path "server.sock" ] }
  | W.Routed ->
    let a = server "a" "server" [] and b = server "b" "server" [] in
    let r =
      host ~name:"router" ~cpu:place.driver_cpu ~trace
        [
          "--role"; "router"; "--listen"; path "router.sock";
          "--shard"; "a=unix:" ^ path "a.sock";
          "--shard"; "b=unix:" ^ path "b.sock";
        ]
    in
    {
      procs = [ r; a; b ];
      front = path "router.sock";
      shards = [ path "a.sock"; path "b.sock" ];
    }

let contains sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The real binaries, composed as a user would start them. *)
let launch_jim kind ~jim ~dir =
  let path f = Filename.concat dir ("jim-" ^ f) in
  let start name args =
    let p = spawn ~control:false ("jim " ^ name) jim args in
    expect p (contains "listening on");
    p
  in
  let serve name extra =
    start name ([ "serve"; "--socket"; path (name ^ ".sock") ] @ extra)
  in
  match kind with
  | W.Explore ->
    let s = serve "server" [] in
    { procs = [ s ]; front = path "server.sock"; shards = [] }
  | W.Durable ->
    let s = serve "server" [ "--data-dir"; path "store" ] in
    { procs = [ s ]; front = path "server.sock"; shards = [] }
  | W.Routed ->
    let a = serve "a" [] and b = serve "b" [] in
    let r =
      start "router"
        [
          "router"; "--socket"; path "router.sock";
          "--shard"; "a=unix:" ^ path "a.sock";
          "--shard"; "b=unix:" ^ path "b.sock";
        ]
    in
    { procs = [ r; a; b ]; front = path "router.sock"; shards = [] }

let stop_tier t = List.iter stop t.procs

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

let register path (instances : W.instance array) =
  let c = Client.connect path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Array.iter
        (fun (inst : W.instance) ->
          let reply =
            Client.call c
              (P.request_to_string (P.Register_instance { source = inst.W.source }))
          in
          match P.response_of_string reply with
          | Ok (P.Registered _) -> ()
          | _ -> failwith ("registration refused: " ^ reply))
        instances)

(* One full session per instance, on the first measurement connection. *)
let warm_up kind instances c =
  let r = Client.recorder () in
  Array.iteri
    (fun i _ ->
      let spec = { W.inst = i; mode = W.Ask; undo = kind <> W.Explore; seed = i } in
      if not (Client.run_session r c (Client.session (W.strategy kind) instances spec))
      then failwith ("warm-up session failed: " ^ String.concat "; " r.Client.errors))
    instances

(* Launch, wait until every process listens, register the instances
   (at every shard, so each catalog is warm whichever shard a session
   lands on), open the two measurement connections and warm up.  The
   time from launch to here is one set-up. *)
let setup kind ~place ~dir ~tag ~trace instances =
  let t0 = Span.now () in
  let tier = launch kind ~place ~dir ~tag ~trace in
  List.iter (fun s -> register s instances) tier.shards;
  let conns = [ Client.connect tier.front; Client.connect tier.front ] in
  warm_up kind instances (List.hd conns);
  let secs = float_of_int (Span.now () - t0) *. 1e-9 in
  (tier, conns, secs)

let teardown (tier, conns) =
  List.iter Client.close conns;
  stop_tier tier

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)

(* Drive one round of the workload's sessions (after registering the
   instances) against the real binaries, then send the identical
   request stream to the benchmark's host; every reply must match byte
   for byte.  Returns the number of replies compared. *)
let parity kind ~place ~jim ~dir instances rng =
  let specs = W.round kind rng in
  let script = ref [] in
  let real = launch_jim kind ~jim ~dir in
  let refused =
    Fun.protect
      ~finally:(fun () -> stop_tier real)
      (fun () ->
        let c = Client.connect real.front in
        Array.iter
          (fun (inst : W.instance) ->
            let req = P.request_to_string (P.Register_instance { source = inst.W.source }) in
            script := (req, Client.call c req) :: !script)
          instances;
        let r = Client.recorder () in
        List.iter
          (fun spec ->
            let s = Client.session (W.strategy kind) instances spec in
            ignore (Client.run_session ~log:(fun q a -> script := (q, a) :: !script) r c s))
          specs;
        Client.close c;
        r.Client.errors)
  in
  if refused <> [] then Error ("parity: jim refused a request: " ^ String.concat "; " refused)
  else
    let ours = launch kind ~place ~dir ~tag:"parity-" ~trace:false in
    Fun.protect
      ~finally:(fun () -> stop_tier ours)
      (fun () ->
        let c = Client.connect ours.front in
        let script = List.rev !script in
        let differs =
          List.find_map
            (fun (i, (req, want)) ->
              let got = Client.call c req in
              if got = want then None
              else
                Some
                  (Printf.sprintf "parity: reply %d differs from jim's: request %s, jim %s, bench %s"
                     i req want got))
            (List.mapi (fun i x -> (i, x)) script)
        in
        Client.close c;
        match differs with Some e -> Error e | None -> Ok (List.length script))
