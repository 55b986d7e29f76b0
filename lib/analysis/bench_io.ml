let schema = "mpc-aborts-bench/4"

(* /1 reports predate the --jobs flag; they load with [jobs = 1], which is
   accurate — the old harness was sequential.  /2 reports predate the
   optional per-run [peak_rss_mb] field; they load with it [None].  /3
   reports predate the symbolic-cost [predicted_*] fields; they load with
   all of them [None]. *)
let legacy_schema = "mpc-aborts-bench/1"
let legacy_schema_2 = "mpc-aborts-bench/2"
let legacy_schema_3 = "mpc-aborts-bench/3"

type run = {
  experiment : string;
  series : string;
  n : int;
  h : int;
  bits : int;
  messages : int;
  rounds : int;
  wall_ms : float;
  seed : int option;
  peak_rss_mb : float option;
  predicted_bits : int option;
  predicted_bits_lo : int option;
  predicted_messages : int option;
  predicted_rounds : int option;
}

type report = {
  date : string;
  quick : bool;
  jobs : int;
  total_wall_ms : float;
  experiment_wall_ms : (string * float) list;
  runs : run list;
}

(* ---- JSON encoding ---- *)

let run_to_json r =
  Json.Obj
    ([
       ("experiment", Json.String r.experiment);
       ("series", Json.String r.series);
       ("n", Json.Int r.n);
       ("h", Json.Int r.h);
       ("bits", Json.Int r.bits);
       ("messages", Json.Int r.messages);
       ("rounds", Json.Int r.rounds);
       ("wall_ms", Json.Float r.wall_ms);
     ]
    (* Optional keys are emitted only when present, so reports from sites
       that never set them are byte-identical to before and older readers
       that ignore unknown keys keep working. *)
    @ (match r.seed with None -> [] | Some s -> [ ("seed", Json.Int s) ])
    @ (match r.peak_rss_mb with
      | None -> []
      | Some mb -> [ ("peak_rss_mb", Json.Float mb) ])
    @ (match r.predicted_bits with None -> [] | Some v -> [ ("predicted_bits", Json.Int v) ])
    (* The lower bound is only emitted when a declared slack makes it
       differ from the upper bound, so exact predictions stay one key. *)
    @ (match (r.predicted_bits_lo, r.predicted_bits) with
      | Some lo, Some hi when lo <> hi -> [ ("predicted_bits_lo", Json.Int lo) ]
      | _ -> [])
    @ (match r.predicted_messages with
      | None -> []
      | Some v -> [ ("predicted_messages", Json.Int v) ])
    @
    match r.predicted_rounds with
    | None -> []
    | Some v -> [ ("predicted_rounds", Json.Int v) ])

let report_to_json rep =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("date", Json.String rep.date);
      ("quick", Json.Bool rep.quick);
      ("jobs", Json.Int rep.jobs);
      ("total_wall_ms", Json.Float rep.total_wall_ms);
      ( "experiments",
        Json.List
          (List.map
             (fun (id, ms) ->
               Json.Obj [ ("experiment", Json.String id); ("wall_ms", Json.Float ms) ])
             rep.experiment_wall_ms) );
      ("runs", Json.List (List.map run_to_json rep.runs));
    ]

(* ---- JSON decoding ---- *)

let field name get j =
  match Option.bind (Json.member name j) get with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Bench_io: missing or malformed field %S" name)

let run_of_json j =
  {
    experiment = field "experiment" Json.get_string j;
    series = field "series" Json.get_string j;
    n = field "n" Json.get_int j;
    h = field "h" Json.get_int j;
    bits = field "bits" Json.get_int j;
    messages = field "messages" Json.get_int j;
    rounds = field "rounds" Json.get_int j;
    wall_ms = field "wall_ms" Json.get_float j;
    seed = Option.bind (Json.member "seed" j) Json.get_int;
    peak_rss_mb = Option.bind (Json.member "peak_rss_mb" j) Json.get_float;
    predicted_bits = Option.bind (Json.member "predicted_bits" j) Json.get_int;
    predicted_bits_lo =
      (* Reconstruct the elided exact case: lo defaults to the upper
         bound whenever a prediction is present at all. *)
      (match Option.bind (Json.member "predicted_bits_lo" j) Json.get_int with
      | Some lo -> Some lo
      | None -> Option.bind (Json.member "predicted_bits" j) Json.get_int);
    predicted_messages = Option.bind (Json.member "predicted_messages" j) Json.get_int;
    predicted_rounds = Option.bind (Json.member "predicted_rounds" j) Json.get_int;
  }

let report_of_json j =
  (match Json.member "schema" j with
  | Some (Json.String s)
    when s = schema || s = legacy_schema || s = legacy_schema_2 || s = legacy_schema_3 -> ()
  | Some (Json.String s) -> failwith (Printf.sprintf "Bench_io: unknown schema %S" s)
  | _ -> failwith "Bench_io: missing schema field");
  {
    date = field "date" Json.get_string j;
    quick = (match Option.bind (Json.member "quick" j) Json.get_bool with Some b -> b | None -> false);
    jobs = (match Option.bind (Json.member "jobs" j) Json.get_int with Some v -> v | None -> 1);
    total_wall_ms = field "total_wall_ms" Json.get_float j;
    experiment_wall_ms =
      field "experiments" Json.get_list j
      |> List.map (fun e -> (field "experiment" Json.get_string e, field "wall_ms" Json.get_float e));
    runs = field "runs" Json.get_list j |> List.map run_of_json;
  }

let save path rep =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true (report_to_json rep));
  close_out oc

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  report_of_json (Json.parse s)

(* ---- diffing two reports ---- *)

let run_key r = (r.experiment, r.series, r.n, r.h)

let pct_delta ~before ~after =
  if after = before then "="
  else if before = 0 then "new"
  else
    let pct = 100.0 *. (float_of_int after -. float_of_int before) /. float_of_int before in
    (* Never let a real drift round down to a clean-looking 0.0%. *)
    if Float.abs pct < 0.05 then Printf.sprintf "%+d" (after - before)
    else Printf.sprintf "%+.1f%%" pct

let speedup ~before ~after =
  if after <= 0.0 then "-" else Printf.sprintf "%.2fx" (before /. after)

(* [f b a] for each run [b] of [before] whose key also appears in
   [after] as [a], in [before]'s order. *)
let iter_matched ~before ~after f =
  let after_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace after_tbl (run_key r) r) after.runs;
  List.iter (fun b -> Option.iter (f b) (Hashtbl.find_opt after_tbl (run_key b))) before.runs

let unmatched ~before ~after =
  let only_in a b =
    let keys = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace keys (run_key r) ()) b.runs;
    List.filter (fun r -> not (Hashtbl.mem keys (run_key r))) a.runs
  in
  (only_in before after, only_in after before)

let matched_wall_ms ~before ~after =
  let wb = ref 0.0 and wa = ref 0.0 in
  iter_matched ~before ~after (fun b a ->
      wb := !wb +. b.wall_ms;
      wa := !wa +. a.wall_ms);
  (!wb, !wa)

let diff_table ~before ~after =
  (* Wall-clock comparisons between reports produced at different --jobs
     counts measure the parallel speedup, not a regression: label the
     column as informational.  Accounting columns (bits/messages/rounds)
     are jobs-independent by the determinism contract and always gate. *)
  let jobs_differ = before.jobs <> after.jobs in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "bench diff: %s (%s) vs %s (%s)" before.date
           (if before.quick then "quick" else "full")
           after.date
           (if after.quick then "quick" else "full"))
      ~columns:
        [ "experiment"; "series"; "n"; "h"; "bits"; "d-bits"; "d-msgs"; "d-rounds"; "d-pred";
          (if jobs_differ then "speedup (info)" else "speedup"); "rss (info)" ]
  in
  (* Peak RSS is informational like wall time: it is a property of the
     whole process (GC settings, jobs count, what ran before), not of the
     protocol, so it never counts as drift. *)
  let fmt_rss = function Some mb -> Printf.sprintf "%.0fMB" mb | None -> "-" in
  let rss_cell ~b ~a =
    match (b, a) with None, None -> "-" | _ -> Printf.sprintf "%s -> %s" (fmt_rss b) (fmt_rss a)
  in
  let matched = ref 0 and drifted = ref 0 in
  iter_matched ~before ~after (fun b a ->
      incr matched;
      (* Predicted fields gate only when both records carry them: a /3
         baseline diffed against a /4 report must not flag every row as
         drifted just because the new side gained predictions. *)
      let opt_drift bo ao = match (bo, ao) with Some x, Some y -> x <> y | _ -> false in
      if
        a.bits <> b.bits || a.messages <> b.messages || a.rounds <> b.rounds
        || opt_drift b.predicted_bits a.predicted_bits
        || opt_drift b.predicted_bits_lo a.predicted_bits_lo
        || opt_drift b.predicted_messages a.predicted_messages
        || opt_drift b.predicted_rounds a.predicted_rounds
      then incr drifted;
      Table.add_row t
        [
          b.experiment;
          b.series;
          string_of_int b.n;
          string_of_int b.h;
          Table.fmt_bits a.bits;
          pct_delta ~before:b.bits ~after:a.bits;
          pct_delta ~before:b.messages ~after:a.messages;
          pct_delta ~before:b.rounds ~after:a.rounds;
          (match (b.predicted_bits, a.predicted_bits) with
          | Some pb, Some pa -> pct_delta ~before:pb ~after:pa
          | None, Some _ -> "new"
          | _ -> "-");
          speedup ~before:b.wall_ms ~after:a.wall_ms;
          rss_cell ~b:b.peak_rss_mb ~a:a.peak_rss_mb;
        ]);
  (t, !matched, !drifted)

(* ---- process peak RSS ---- *)

let peak_rss_mb () =
  (* VmHWM ("high water mark") in /proc/self/status is the process's peak
     resident set in kB, maintained by the kernel — monotone over the
     process lifetime, free to read.  Linux-only by construction; any
     platform without the file (or with a different layout) reports
     [None] and the harness simply omits the field. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          (* "VmHWM:\t  123456 kB" — whitespace-trimmed digit prefix. *)
          let rest = String.trim (String.sub line 6 (String.length line - 6)) in
          let len = String.length rest in
          let j = ref 0 in
          while !j < len && rest.[!j] >= '0' && rest.[!j] <= '9' do
            incr j
          done;
          if !j = 0 then None
          else
            match int_of_string_opt (String.sub rest 0 !j) with
            | Some kb -> Some (float_of_int kb /. 1024.0)
            | None -> None
        end
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

let print_diff ~before ~after =
  let t, matched, drifted = diff_table ~before ~after in
  Table.print t;
  (* Whole-report totals are not comparable when the row sets differ
     (an E2-only report against a full baseline), so the total covers
     the matched runs only. *)
  let wall_b, wall_a = matched_wall_ms ~before ~after in
  Printf.printf
    "\n%d comparable runs; %d with accounting drift (bits/messages/rounds changed).\n\
     total wall over the %d matched runs: %.1fs (jobs=%d) -> %.1fs (jobs=%d) (%s)\n"
    matched drifted matched (wall_b /. 1000.0) before.jobs (wall_a /. 1000.0) after.jobs
    (speedup ~before:wall_b ~after:wall_a);
  (* Rows present on one side only are listed, not gated: CI diffs a
     quick report against the full baseline on purpose. *)
  let only_before, only_after = unmatched ~before ~after in
  List.iter
    (fun (side, runs) ->
      if runs <> [] then begin
        Printf.printf "%d runs only in %s:\n" (List.length runs) side;
        List.iter
          (fun r -> Printf.printf "  %s / %s n=%d h=%d\n" r.experiment r.series r.n r.h)
          runs
      end)
    [ ("before", only_before); ("after", only_after) ];
  if before.jobs <> after.jobs then
    Printf.printf
      "note: reports were produced at different --jobs counts (%d vs %d); wall-time\n\
       deltas above are informational (they measure parallel speedup, not drift).\n\
       Only accounting drift — bits/messages/rounds/locality/verdicts — gates.\n"
      before.jobs after.jobs;
  (matched, drifted)
