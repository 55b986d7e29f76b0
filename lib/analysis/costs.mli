(** Symbolic cost engine: closed-form integer expressions for the exact
    bit/message/round accounting of every protocol in [lib/core], checked
    against the measured [Netsim.Net] counters.

    The paper states its results as asymptotic bounds — Õ(n²/h) for
    Theorem 1, Õ(n³/h) and Õ(n³/h^{3/2}) for the locality theorems — and
    the bench harness until now only checked them as fitted log-log
    exponents ({!Complexity.fit}), which tolerates constant-factor drift.
    This module makes the accounting an identity instead: each protocol
    exports a {!spec} — a list of {!phase}s, each giving closed-form
    expressions for the bits, messages and rounds it contributes per edge
    class — and the bench harness evaluates the spec at every sweep point
    and asserts it against the measured counters, exactly or within a
    declared one-sided slack.

    Expressions are exact integer arithmetic (no floats except inside
    opaque {!constructor-Call} nodes that reuse the protocols' own sizing
    code, e.g. [Cost_model.round1_bytes]), so evaluation at n = 10⁶
    extrapolates the paper's claims far past what the simulator can
    execute. *)

(** Integer cost expression.  Evaluation is exact 63-bit integer
    arithmetic; variables resolve against an {!env}. *)
type expr =
  | Const of int
  | Var of string  (** resolved by {!eval} against the environment *)
  | Add of expr list
  | Sub of expr * expr
  | Mul of expr list
  | Ceil_div of expr * expr  (** ⌈a / b⌉ for b > 0 *)
  | Min of expr * expr
  | Max of expr * expr
  | Choose2 of expr  (** k(k−1)/2 — unordered pairs *)
  | Ge of expr * expr  (** indicator: 1 when a ≥ b, else 0 *)
  | Call of string * (int array -> int) * expr array
      (** [Call (name, f, args)] — an opaque named integer function over
          evaluated arguments.  This is how specs reuse the exact sizing
          code the protocols themselves call ([Cost_model.round1_bytes],
          [Fingerprint.residues_needed], [Codec.varint_size], a PKE
          module's [ciphertext_size], ...) so the formula and the wire
          format cannot drift apart.  [name] appears in pretty-printing. *)

(** Structural observables of a run's realized randomness.

    Most specs are closed-form in the public parameters alone, but the
    randomized protocols have cost terms that depend on sampled values —
    the committee size, the number of gossip batches, which parties a
    Theorem 4 cover hit.  Those are not predictable a priori, but they are
    {e observable}: the protocol can record the structural count (never a
    measured byte length) into an [Obs.t] as it runs, and the spec refers
    to it as a {!constructor-Var}.  The prediction then remains a genuine
    cross-check: bits are still derived from wire-format structure, not
    read back from the accounting being audited. *)
module Obs : sig
  type t

  val create : unit -> t

  (** [scoped t p] — a handle recording through the same table with key
      prefix [p ^ "."] prepended (composes: sub-protocols of sub-protocols
      get ["a.b.key"]).  Used when a pipeline runs a sub-protocol and the
      pipeline's spec embeds the sub-protocol's phases under a prefix. *)
  val scoped : t -> string -> t

  (** [set t k v] — bind (prefixed) [k] to [v], replacing any previous
      binding. *)
  val set : t -> string -> int -> unit

  (** [add t k v] — add [v] to (prefixed) [k], treating unbound as 0.
      Each call builds the prefixed key (a string concatenation) and
      hashes it twice, so a hot loop should count into local refs and
      [add] each total once when it is done. *)
  val add : t -> string -> int -> unit

  (** Lookup by full (already-prefixed) key, ignoring the handle's own
      prefix. *)
  val get_opt : t -> string -> int option

  (** All bindings with full keys, sorted by key. *)
  val bindings : t -> (string * int) list
end

type env

(** [env ?obs bindings] — variable environment: [bindings] first, then
    the observation table.  {!eval} raises [Invalid_argument] naming the
    variable when neither binds it. *)
val env : ?obs:Obs.t -> (string * int) list -> env

val eval : env -> expr -> int

(** Pretty-print an expression (infix, [Call] by name). *)
val to_string : expr -> string

(** {1 Common sub-expressions} *)

(** LEB128 varint width of a value, as used by [Util.Codec]. *)
val varint_e : expr -> expr

(** [sum_varint_below k] — Σ_{i=0}^{k−1} varint_size(i), closed form
    (the encoded size of the id column when ids are [0..k−1]). *)
val sum_varint_below : expr -> expr

(** Exact integer [Σ varint_size(id)] over a concrete id list (for
    member sets that are not a prefix range). *)
val varint_sum_ids : int list -> int

(** [bits_of_bytes e] = [8·e]. *)
val bits_of_bytes : expr -> expr

(** {1 Specs} *)

(** One protocol phase over one edge class. [bits] is an upper bound;
    the measured value must lie in [[bits − bits_slack, bits]].
    [bits_slack] is [Const 0] (and [reason = ""]) for exact phases.
    [messages] and [rounds] are always exact. *)
type phase = {
  label : string;
  edge : string;  (** e.g. ["member->member"], ["party->all"] *)
  bits : expr;
  bits_slack : expr;
  reason : string;  (** why the slack exists; [""] when exact *)
  messages : expr;
  rounds : expr;
}

(** Exact phase: slack 0, no reason. *)
val exact : label:string -> edge:string -> bits:expr -> messages:expr -> rounds:expr -> phase

(** Phase with a declared one-sided slack and its documented reason. *)
val bounded :
  label:string ->
  edge:string ->
  bits:expr ->
  slack:expr ->
  reason:string ->
  messages:expr ->
  rounds:expr ->
  phase

(** [prefix_phases p phases] — relabel phases and rewrite every
    {!constructor-Var} [v] to [p ^ "." ^ v]: embeds a sub-protocol's
    phases into a pipeline spec, matching {!Obs.scoped} key prefixes.
    Callers bind the scoped parameter variables (e.g. ["keygen.k"]) in
    the environment. *)
val prefix_phases : string -> phase list -> phase list

(** [guard g phases] — multiply every field of every phase by indicator
    expression [g] (typically [Ge (k, Const 2)]): models sub-protocols a
    pipeline skips entirely below a threshold, including their rounds. *)
val guard : expr -> phase list -> phase list

(** A protocol's cost model: summed {!phase}s plus an optional symbolic
    locality bound.  [max_locality], when present, is a closed form for
    the measured [Netsim.Net.max_locality] of an honest run — the
    maximum over parties of distinct peers touched.  Locality does {e
    not} sum across phases (phases touching the same peers cost their
    union), so the formula lives on the whole spec and only standalone
    specs carry one; pipeline specs that embed other protocols' phases
    leave it [None]. *)
type spec = { name : string; phases : phase list; max_locality : expr option }

type totals = { bits_hi : int; bits_lo : int; messages : int; rounds : int }

val totals : env -> spec -> totals

(** Mismatch detail for one phase-summed counter. *)
type verdict = {
  ok : bool;
  detail : string list;
      (** human-readable mismatch lines, empty when [ok] *)
}

(** [check env spec ~bits ~messages ~rounds] — measured totals against
    the spec: bits within [[lo, hi]], messages and rounds exact.  With
    [?locality] and a spec carrying a [max_locality] formula, the
    measured maximum locality is additionally checked {e exactly};
    a formula referring to an observable the caller never recorded is
    silently skipped (unbound variable = "not checkable here"), never
    reported as a mismatch. *)
val check : ?locality:int -> env -> spec -> bits:int -> messages:int -> rounds:int -> verdict

(** Per-phase breakdown at an environment: one row per phase
    (label, edge, bits hi, slack, messages, rounds) plus a totals row,
    and a [max_locality] row when the spec declares a checkable
    formula. *)
val phase_table : env -> spec -> Table.t
