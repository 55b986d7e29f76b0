(* The honest-run catalogue: one function per protocol the bench meters.
   Each builds the protocol's parameters and config, runs it honestly on
   the caller's network and RNG with the harness context's pool and
   deadline, and returns its outcomes plus the checked cost-spec totals
   ([Harness.verify]).  Callers choose seeds, inputs, circuits and PKE,
   so every experiment keeps its own workload while the pairing of a
   protocol with its cost spec is written once.  All parameters use
   lambda = 8. *)

open Harness

let params ?(alpha = 2) ~h net = Mpc.Params.make ~n:(Netsim.Net.n net) ~h ~lambda:8 ~alpha ()
let none net = Netsim.Corruption.none ~n:(Netsim.Net.n net)

(* The spec expressions shared by the circuit-evaluating pipelines. *)
let circuit_args circuit ~input_width =
  let open Analysis.Costs in
  (Const (Circuit.depth circuit), Const input_width, Const (Circuit.num_outputs circuit))

(* Algorithm 3 (Theorem 1) at honest-minority bound [h]. *)
let alg3 c net rng ~h ~pke ~circuit ~input_width ~inputs =
  let config = { Mpc.Mpc_abort.params = params ~h net; pke; circuit; input_width } in
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Mpc_abort.run ?pool:c.pool ~deadline:(deadline c) ~obs net rng config
      ~corruption:(none net) ~inputs ~adv:Mpc.Mpc_abort.honest_adv
  in
  let depth, input_width, out_bits = circuit_args circuit ~input_width in
  let n = Analysis.Costs.Const (Netsim.Net.n net) in
  ( outs,
    verify c ~obs
      (Mpc.Mpc_abort.cost_spec ~pke ~depth ~input_width ~out_bits ~n ~lambda:(Const 8))
      net )

(* Theorem 2: gossip MPC over the sparse routing network, 1-bit inputs. *)
let thm2 c net rng ~h ~pke ~circuit ~inputs =
  let config = { Mpc.Local_mpc.params = params ~h net; pke; circuit; input_width = 1 } in
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Local_mpc.run_theorem2 ?pool:c.pool ~obs net rng config ~corruption:(none net) ~inputs
      ~adv:Mpc.Local_mpc.honest_theorem2_adv
  in
  let depth, input_width, out_bits = circuit_args circuit ~input_width:1 in
  let open Analysis.Costs in
  ( outs,
    verify c ~obs
      (Mpc.Local_mpc.cost_spec_theorem2 ~n:(Const (Netsim.Net.n net)) ~h:(Const h)
         ~lambda:(Const 8) ~alpha:(Const 2) ~depth ~input_width ~out_bits)
      net )

(* Theorem 4 (Algorithm 8), 1-bit inputs, with its Equation (1) phase
   costs; [?cover_size] overrides the cover size (E10).  The cover-size
   override flows through the cover fan-out observables, so the same
   spec covers it. *)
let thm4 ?cover_size c net rng ~h ~alpha ~pke ~circuit ~inputs =
  let config =
    { Mpc.Local_mpc.params = params ~alpha ~h net; pke; circuit; input_width = 1 }
  in
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Local_mpc.run_theorem4_metered ?cover_size ?pool:c.pool ~obs net rng config
      ~corruption:(none net) ~inputs ~adv:Mpc.Local_mpc.honest_theorem4_adv
  in
  let depth, input_width, out_bits = circuit_args circuit ~input_width:1 in
  let open Analysis.Costs in
  ( outs,
    verify c ~obs
      (Mpc.Local_mpc.cost_spec_theorem4 ~pke ~depth ~input_width ~out_bits
         ~n:(Const (Netsim.Net.n net)) ~h:(Const h) ~lambda:(Const 8) ~alpha:(Const alpha))
      net )

(* All-to-all broadcast of every party's [len]-byte [input], h = n/2. *)
let a2a c net rng ~variant ~len ~input =
  let n = Netsim.Net.n net in
  let participants = List.init n Fun.id in
  let outs =
    Mpc.All_to_all.run ?pool:c.pool ~deadline:(deadline c) net rng (params ~h:(n / 2) net)
      ~variant ~participants ~input ~corruption:(none net) ~adv:Mpc.All_to_all.honest_adv
  in
  let open Analysis.Costs in
  ( outs,
    verify c
      (Mpc.All_to_all.cost_spec ~variant ~k:(Const n)
         ~idsum:(Const (varint_sum_ids participants))
         ~len:(Const len) ~n:(Const n) ~lambda:(Const 8))
      net )

(* CommitteeElect (Alg 2) under [corruption] with honest behavior. *)
let committee c net rng ~h ~corruption =
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Committee.run ?pool:c.pool ~deadline:(deadline c) ~obs net rng (params ~h net)
      ~corruption ~adv:Mpc.Committee.honest_adv
  in
  let open Analysis.Costs in
  ( outs,
    verify c ~obs (Mpc.Committee.cost_spec ~n:(Const (Netsim.Net.n net)) ~lambda:(Const 8)) net )

let sparse_spec ~n ~h ~alpha =
  let open Analysis.Costs in
  Mpc.Sparse_network.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8) ~alpha:(Const alpha)

(* SparseNetwork (Claim 20) under [corruption] with honest behavior.  The
   obs carries the structural union degree, so [verify] also asserts the
   spec's max_locality formula. *)
let sparse c net rng ~h ~alpha ~corruption =
  let obs = Analysis.Costs.Obs.create () in
  let outs =
    Mpc.Sparse_network.run ?pool:c.pool ~obs net rng (params ~alpha ~h net) ~corruption
      ~adv:Mpc.Sparse_network.honest_adv
  in
  (outs, verify c ~obs (sparse_spec ~n:(Netsim.Net.n net) ~h ~alpha) net)

(* The GMW baseline, 1-bit inputs. *)
let gmw c net rng ~circuit ~inputs =
  let outs =
    Mpc.Gmw.run net rng ~circuit ~input_width:1 ~inputs ~corruption:(none net)
      ~adv:Mpc.Gmw.honest_adv
  in
  ( outs,
    verify c
      (Mpc.Gmw.cost_spec ~circuit ~input_width:1 ~n:(Analysis.Costs.Const (Netsim.Net.n net)))
      net )

(* Single-source broadcast of a 64-byte value from party 0, h = n/2. *)
let broadcast c net rng ~variant =
  let n = Netsim.Net.n net in
  let outs =
    Mpc.Broadcast.run ?pool:c.pool ~deadline:(deadline c) net rng (params ~h:(n / 2) net)
      ~variant ~sender:0 ~value:(Bytes.make 64 'v') ~corruption:(none net)
      ~adv:Mpc.Broadcast.honest_adv
  in
  let open Analysis.Costs in
  ( outs,
    verify c (Mpc.Broadcast.cost_spec ~variant ~n:(Const n) ~lambda:(Const 8) ~len:(Const 64)) net )

(* Yao + LWE-OT two-party computation (Remark 10); an honest run must
   produce an output. *)
let two_party c net rng ~circuit ~input_width ~x0 ~x1 =
  match Mpc.Two_party.run net rng ~circuit ~input_width ~x0 ~x1 with
  | Mpc.Outcome.Abort r -> failwith (Mpc.Outcome.reason_to_string r)
  | Mpc.Outcome.Output outs ->
    (outs, verify c (Mpc.Two_party.cost_spec ~circuit ~input_width) net)
