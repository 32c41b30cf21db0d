(* The three workloads: their instances, their session scripts, the
   reference each run is checked against, and the seeded session lists.
   Why each workload exists, and which CPU each process runs on, is
   written down in WORKLOADS.md. *)

module P = Jim_api.Protocol
module Synth = Jim_workloads.Synthetic
module Oracle = Jim_core.Oracle
module Session = Jim_core.Session
module Strategy = Jim_core.Strategy

type kind = Explore | Durable | Routed

let kind_of_string = function
  | "explore" -> Some Explore
  | "durable" -> Some Durable
  | "routed" -> Some Routed
  | _ -> None

let name = function
  | Explore -> "explore"
  | Durable -> "durable"
  | Routed -> "routed"

(* How a session asks: mode 4 of the paper's Fig. 3 (the strategy's
   next question, [Get_question]) or mode 3 (a top-[k] ranking,
   [Top_questions], of which the user labels the first). *)
type mode = Ask | Top of int

type spec = {
  inst : int;  (** index into the workload's instances *)
  mode : mode;
  undo : bool;  (** undo the first answer and answer it again *)
  seed : int;  (** the session's strategy seed *)
}

type instance = {
  source : P.instance_source;
  relation : Jim_relational.Relation.t;
  goal : Jim_partition.Partition.t;
  oracle : Oracle.t;
  expected : int;  (** questions [Session.run] asks on this instance *)
}

(* The instances and strategies are fixed, not drawn from the run's
   seed: questions per session is the paper's cost measure, and it must
   read the same on every run for a change in it to mean anything.  The
   seed orders the sessions, seeds their strategies and draws the
   open-loop arrival schedule. *)
let params kind i =
  match kind with
  | Explore ->
    { Synth.n_attrs = 6; n_tuples = 60; domain = 8; goal_rank = 2; seed = 101 + i }
  | Durable | Routed ->
    { Synth.n_attrs = 5; n_tuples = 40; domain = 8; goal_rank = 3; seed = 201 + i }

let strategy = function
  | Explore -> "lookahead-entropy"
  | Durable | Routed -> "local-lex"

let n_instances = 4

let instances kind =
  let strat =
    match Strategy.of_string (strategy kind) with
    | Ok s -> s
    | Error e -> failwith e
  in
  Array.init n_instances (fun i ->
      let p = params kind i in
      let inst = Synth.generate p in
      let oracle = Oracle.of_goal inst.Synth.goal in
      let run = Session.run ~strategy:strat ~oracle inst.Synth.relation in
      {
        source =
          P.Synthetic
            {
              n_attrs = p.Synth.n_attrs;
              n_tuples = p.Synth.n_tuples;
              domain = p.Synth.domain;
              goal_rank = p.Synth.goal_rank;
              seed = p.Synth.seed;
            };
        relation = inst.Synth.relation;
        goal = inst.Synth.goal;
        oracle;
        expected = run.Session.interactions;
      })

(* One connection's share of a round: every instance, and on [explore]
   both modes, so every round of every connection carries the same mix
   and a run's totals are whole rounds of it. *)
let round kind rng =
  let specs =
    List.concat_map
      (fun inst ->
        let seed () = Random.State.bits rng in
        match kind with
        | Explore ->
          [
            { inst; mode = Ask; undo = false; seed = seed () };
            { inst; mode = Top 5; undo = false; seed = seed () };
          ]
        | Durable | Routed -> [ { inst; mode = Ask; undo = true; seed = seed () } ])
      (List.init n_instances Fun.id)
  in
  let a = Array.of_list specs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The output check: the inferred predicate must select exactly the
   tuples the planted goal selects on the instance. *)
let selects_goal inst query =
  let q = Oracle.of_goal query in
  List.for_all
    (fun t -> Oracle.label_tuple q t = Oracle.label_tuple inst.oracle t)
    (Jim_relational.Relation.tuples inst.relation)
