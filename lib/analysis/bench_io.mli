(** Persisted benchmark reports: the [--json] output of [bench/main.exe]
    and the regression-diff logic behind its [--diff] mode.

    A report is a JSON object (schema {!schema}) holding one {!run} record
    per metered protocol execution — experiment id, series label, (n, h),
    the simulator's accounting counters, and wall-clock — plus per-
    experiment and total wall times.  Two reports from different commits
    can be diffed to catch both performance regressions (wall-clock) and
    accounting drift (bits/messages/rounds changing without a deliberate
    protocol change). *)

val schema : string

(** The pre-[--jobs] schema ([mpc-aborts-bench/1]); {!report_of_json}
    still accepts it, defaulting {!type-report.jobs} to [1]. *)
val legacy_schema : string

(** The pre-[peak_rss_mb] schema ([mpc-aborts-bench/2]); also accepted,
    loading with {!type-run.peak_rss_mb} = [None]. *)
val legacy_schema_2 : string

(** The pre-[predicted_*] schema ([mpc-aborts-bench/3]); also accepted,
    loading with every predicted field [None]. *)
val legacy_schema_3 : string

type run = {
  experiment : string;  (** e.g. ["E1"] *)
  series : string;  (** which sweep within the experiment, e.g. ["n-sweep h=n/4"] *)
  n : int;
  h : int;
  bits : int;  (** total bits sent, the paper's §3.1 communication measure *)
  messages : int;
  rounds : int;
  wall_ms : float;
  seed : int option;
      (** the harness-level [--seed] the run was produced under; [None]
          (the default seeding) omits the key from the JSON entirely, so
          older readers that ignore unknown keys keep working *)
  peak_rss_mb : float option;
      (** process peak resident set (VmHWM) when the record was made —
          monotone over the process, so within one report it brackets
          each run's memory high-water.  [None] (non-Linux, or a report
          predating the field) omits the key.  Informational in diffs,
          like wall time: it depends on jobs count, GC settings, and what
          ran earlier in the process, so it never gates; the hard memory
          gate is CI's address-space ulimit and [--max-rss-mb]. *)
  predicted_bits : int option;
      (** upper bound on [bits] from the protocol's symbolic cost spec
          ({!Costs}), evaluated at this run's parameters and observables;
          [None] on reports predating the field or runs without a spec *)
  predicted_bits_lo : int option;
      (** lower end of the spec's declared-slack interval; equals
          [predicted_bits] for exact specs (the JSON key is then elided
          and reconstructed on load) *)
  predicted_messages : int option;  (** always exact when present *)
  predicted_rounds : int option;  (** always exact when present *)
}

type report = {
  date : string;  (** ISO-8601 UTC *)
  quick : bool;  (** produced by the reduced [--quick] CI tier *)
  jobs : int;
      (** parallel executors used ([--jobs]); affects only wall-clock
          fields — bits/messages/rounds are deterministic at any value *)
  total_wall_ms : float;
  experiment_wall_ms : (string * float) list;
  runs : run list;
}

val report_to_json : report -> Json.t

(** Raises [Failure] on schema mismatch or malformed fields. *)
val report_of_json : Json.t -> report

(** [save path report] — pretty-printed JSON, trailing newline. *)
val save : string -> report -> unit

(** [load path] — raises [Sys_error] / [Failure] / {!Json.Parse_error}. *)
val load : string -> report

(** [diff_table ~before ~after] — one row per run present in both reports
    (matched on experiment/series/n/h): accounting deltas and wall-clock
    speedup.  Also returns (matched, drifted) counts, where a drifted run
    changed bits, messages, or rounds. *)
val diff_table : before:report -> after:report -> Table.t * int * int

(** [matched_wall_ms ~before ~after] is [(before_ms, after_ms)]: the sum
    of [wall_ms] on each side over the runs present in both reports
    (matched as in {!diff_table}).  Runs present in only one report do
    not count. *)
val matched_wall_ms : before:report -> after:report -> float * float

(** [print_diff ~before ~after] prints the table plus a summary line and
    returns [(matched, drifted)] so the caller can fail both on
    accounting drift and on a vacuous diff with no comparable runs. *)
val print_diff : before:report -> after:report -> int * int

(** [peak_rss_mb ()] — the process's peak resident set in MB, read from
    [/proc/self/status] (VmHWM).  [None] where unavailable (non-Linux).
    Monotone non-decreasing over the process lifetime. *)
val peak_rss_mb : unit -> float option
