(* Tests for the experiment harness: complexity fitting and tables. *)

let checkb = Alcotest.(check bool)

let test_sweep_averages () =
  let ms =
    Analysis.Complexity.sweep ~xs:[ 2; 4 ] ~runs:3 (fun ~x ~rep ->
        float_of_int (x * 10) +. float_of_int rep)
  in
  match ms with
  | [ a; b ] ->
    Alcotest.(check (float 1e-9)) "x=2 mean" 21.0 a.Analysis.Complexity.value;
    Alcotest.(check (float 1e-9)) "x=4 mean" 41.0 b.Analysis.Complexity.value
  | _ -> Alcotest.fail "wrong arity"

let test_fit_exact_power_law () =
  let ms =
    List.map
      (fun x -> { Analysis.Complexity.x = float_of_int x; value = 7.0 *. (float_of_int x ** 2.5) })
      [ 2; 4; 8; 16; 32 ]
  in
  let f = Analysis.Complexity.fit ms in
  checkb "exponent" true (abs_float (f.Analysis.Complexity.exponent -. 2.5) < 1e-6);
  checkb "constant" true (abs_float (f.Analysis.Complexity.constant -. 7.0) < 1e-4);
  checkb "check_exponent accepts" true
    (Analysis.Complexity.check_exponent ~expected:2.5 ~tolerance:0.01 f);
  checkb "check_exponent rejects" false
    (Analysis.Complexity.check_exponent ~expected:3.0 ~tolerance:0.1 f)

let test_fit_with_polylog () =
  (* y = x^2 * (log x)^2: the polylog fit should find j = 2 and k ≈ 2,
     where a plain fit would overshoot the exponent. *)
  let ms =
    List.map
      (fun x ->
        let fx = float_of_int x in
        { Analysis.Complexity.x = fx; value = fx *. fx *. (log fx ** 2.0) })
      [ 4; 8; 16; 32; 64; 128; 256 ]
  in
  let f, j = Analysis.Complexity.fit_with_polylog ms in
  Alcotest.(check int) "polylog power" 2 j;
  checkb "exponent near 2" true (abs_float (f.Analysis.Complexity.exponent -. 2.0) < 0.05)

(* Degenerate series used to come back as NaN slopes (or a garbage fit
   through one point) and silently pass every tolerance check; they must
   raise instead. *)
let test_fit_degenerate_inputs () =
  let raises ms =
    try
      ignore (Analysis.Complexity.fit ms);
      false
    with Invalid_argument _ -> true
  in
  let m x value = { Analysis.Complexity.x; value } in
  checkb "empty" true (raises []);
  checkb "single point" true (raises [ m 4.0 100.0 ]);
  checkb "all-zero values" true (raises [ m 2.0 0.0; m 4.0 0.0; m 8.0 0.0 ]);
  checkb "nonpositive x" true (raises [ m 0.0 5.0; m (-2.0) 7.0 ]);
  (* One positive point among junk is still degenerate... *)
  checkb "one usable point" true (raises [ m 4.0 100.0; m 8.0 0.0; m 0.0 3.0 ]);
  (* ...two are enough: junk points are dropped, not fatal. *)
  let f = Analysis.Complexity.fit [ m 2.0 4.0; m 4.0 16.0; m 8.0 0.0 ] in
  checkb "junk dropped, slope from the positive pair" true
    (abs_float (f.Analysis.Complexity.exponent -. 2.0) < 1e-6);
  checkb "fit_with_polylog raises too" true
    (try
       ignore (Analysis.Complexity.fit_with_polylog [ m 4.0 100.0 ]);
       false
     with Invalid_argument _ -> true)

let test_table_rendering () =
  let t = Analysis.Table.create ~title:"T" ~columns:[ "n"; "bits" ] in
  Analysis.Table.add_row t [ "16"; "1.00 Kb" ];
  Analysis.Table.add_row t [ "32"; "4.00 Kb" ];
  let s = Analysis.Table.render t in
  checkb "has title" true (String.length s > 0 && s.[0] = 'T');
  checkb "has rows" true
    (let contains sub =
       let rec go i =
         i + String.length sub <= String.length s
         && (String.sub s i (String.length sub) = sub || go (i + 1))
       in
       go 0
     in
     contains "16" && contains "4.00 Kb")

let test_table_arity_checked () =
  let t = Analysis.Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  checkb "raises" true
    (try
       Analysis.Table.add_row t [ "only one" ];
       false
     with Invalid_argument _ -> true)

let test_formatters () =
  Alcotest.(check string) "bits small" "512 b" (Analysis.Table.fmt_bits 512);
  Alcotest.(check string) "bits kb" "2.00 Kb" (Analysis.Table.fmt_bits 2000);
  Alcotest.(check string) "bits mb" "1.50 Mb" (Analysis.Table.fmt_bits 1_500_000);
  Alcotest.(check string) "bits gb" "2.10 Gb" (Analysis.Table.fmt_bits 2_100_000_000);
  Alcotest.(check string) "ratio" "3.10x" (Analysis.Table.fmt_ratio 3.1);
  Alcotest.(check string) "prob" "0.2500" (Analysis.Table.fmt_prob 0.25);
  Alcotest.(check string) "float" "1.23" (Analysis.Table.fmt_float 1.2345)

(* ---- Json ---- *)

let sample_json =
  Analysis.Json.(
    Obj
      [
        ("null", Null);
        ("flag", Bool true);
        ("count", Int (-42));
        ("ratio", Float 1.5);
        ("text", String "line1\nline2 \"quoted\" \\slash\x01");
        ("items", List [ Int 1; String "two"; List []; Obj [] ]);
        ("nested", Obj [ ("k", List [ Bool false; Null ]) ]);
      ])

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      let s = Analysis.Json.to_string ~pretty sample_json in
      checkb
        (Printf.sprintf "roundtrip pretty=%b" pretty)
        true
        (Analysis.Json.parse s = sample_json))
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      checkb (Printf.sprintf "rejects %S" s) true
        (try
           ignore (Analysis.Json.parse s);
           false
         with Analysis.Json.Parse_error _ -> true))
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing"; "nan" ]

let test_json_accessors () =
  let open Analysis.Json in
  Alcotest.(check (option int)) "member int" (Some (-42)) (Option.bind (member "count" sample_json) get_int);
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (member "absent" sample_json) get_string);
  checkb "int as float" true (get_float (Int 3) = Some 3.0);
  checkb "float as int only when integral" true
    (get_int (Float 2.0) = Some 2 && get_int (Float 2.5) = None)

(* ---- Bench_io ---- *)

let sample_report =
  {
    Analysis.Bench_io.date = "2026-08-06";
    quick = false;
    jobs = 1;
    total_wall_ms = 1234.5;
    experiment_wall_ms = [ ("E1", 1000.0); ("E9", 234.5) ];
    runs =
      [
        {
          Analysis.Bench_io.experiment = "E1";
          series = "n-sweep h=n/4";
          n = 64;
          h = 16;
          bits = 123456;
          messages = 789;
          rounds = 42;
          wall_ms = 55.5;
          seed = None;
          peak_rss_mb = Some 12.5;
          (* A bounded-slack prediction: lo < hi exercises the explicit
             predicted_bits_lo key. *)
          predicted_bits = Some 123500;
          predicted_bits_lo = Some 123000;
          predicted_messages = Some 789;
          predicted_rounds = Some 42;
        };
        {
          Analysis.Bench_io.experiment = "E9";
          series = "naive 512B";
          n = 8;
          h = 4;
          bits = 2072000;
          messages = 112;
          rounds = 2;
          wall_ms = 1.5;
          seed = Some 7;
          peak_rss_mb = None;
          predicted_bits = None;
          predicted_bits_lo = None;
          predicted_messages = None;
          predicted_rounds = None;
        };
      ];
  }

let test_bench_io_roundtrip () =
  let j = Analysis.Bench_io.report_to_json sample_report in
  let back = Analysis.Bench_io.report_of_json (Analysis.Json.parse (Analysis.Json.to_string ~pretty:true j)) in
  checkb "report roundtrips" true (back = sample_report)

let test_bench_io_save_load () =
  let path = Filename.temp_file "bench_io_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Analysis.Bench_io.save path sample_report;
      checkb "save/load roundtrips" true (Analysis.Bench_io.load path = sample_report))

let test_bench_io_schema_checked () =
  checkb "wrong schema rejected" true
    (try
       ignore (Analysis.Bench_io.report_of_json (Analysis.Json.parse "{\"schema\":\"bogus/9\"}"));
       false
     with Failure _ -> true)

(* A /1 report (pre---jobs harness) must still load, with [jobs] = 1. *)
let test_bench_io_legacy_schema () =
  let legacy =
    Printf.sprintf
      "{\"schema\":%S,\"date\":\"2026-08-06\",\"quick\":true,\"total_wall_ms\":10.0,\
       \"experiments\":[],\"runs\":[]}"
      Analysis.Bench_io.legacy_schema
  in
  let rep = Analysis.Bench_io.report_of_json (Analysis.Json.parse legacy) in
  Alcotest.(check int) "legacy jobs defaults to 1" 1 rep.Analysis.Bench_io.jobs;
  Alcotest.(check bool) "legacy quick preserved" true rep.Analysis.Bench_io.quick

(* ---- committed fixtures: golden /4 and the three legacy schemas ---- *)

(* dune runtest runs with cwd = test/ (where the deps clause materializes
   fixtures/); a direct `dune exec test/test_analysis.exe` runs from the
   project root. *)
let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" name

(* The golden file was produced by [Bench_io.save]; loading and
   re-serializing it must reproduce the bytes exactly, so any encoder
   change (key order, float formatting, optional-key elision) shows up as
   a fixture diff instead of silently rewriting every dated baseline. *)
let test_fixture_v4_golden_roundtrip () =
  let path = fixture "bench_v4.json" in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let rep = Analysis.Bench_io.load path in
  let out = Filename.temp_file "bench_v4_out" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      Analysis.Bench_io.save out rep;
      let rewritten = In_channel.with_open_bin out In_channel.input_all in
      checkb "byte-identical re-serialization" true (String.equal raw rewritten));
  (* The fixture exercises every optional field, including bounded-slack
     predictions (lo < hi). *)
  match rep.Analysis.Bench_io.runs with
  | first :: _ ->
    checkb "has seed" true (first.Analysis.Bench_io.seed <> None);
    checkb "has rss" true (first.Analysis.Bench_io.peak_rss_mb <> None);
    (match (first.Analysis.Bench_io.predicted_bits_lo, first.Analysis.Bench_io.predicted_bits) with
    | Some lo, Some hi -> checkb "bounded slack" true (lo < hi)
    | _ -> Alcotest.fail "fixture lost its predictions")
  | [] -> Alcotest.fail "empty fixture"

let test_fixture_legacy_schemas_load () =
  let v1 = Analysis.Bench_io.load (fixture "bench_v1.json") in
  Alcotest.(check int) "/1 jobs defaults to 1" 1 v1.Analysis.Bench_io.jobs;
  let v2 = Analysis.Bench_io.load (fixture "bench_v2.json") in
  Alcotest.(check int) "/2 keeps jobs" 4 v2.Analysis.Bench_io.jobs;
  let v3 = Analysis.Bench_io.load (fixture "bench_v3.json") in
  List.iter
    (fun (label, (rep : Analysis.Bench_io.report)) ->
      List.iter
        (fun (r : Analysis.Bench_io.run) ->
          checkb (label ^ " has no predictions") true
            (r.Analysis.Bench_io.predicted_bits = None
            && r.Analysis.Bench_io.predicted_bits_lo = None
            && r.Analysis.Bench_io.predicted_messages = None
            && r.Analysis.Bench_io.predicted_rounds = None))
        rep.Analysis.Bench_io.runs)
    [ ("/1", v1); ("/2", v2); ("/3", v3) ];
  (match (List.hd v2.Analysis.Bench_io.runs).Analysis.Bench_io.seed with
  | Some 9 -> ()
  | _ -> Alcotest.fail "/2 seed lost");
  match (List.hd v3.Analysis.Bench_io.runs).Analysis.Bench_io.peak_rss_mb with
  | Some _ -> ()
  | None -> Alcotest.fail "/3 peak_rss_mb lost"

(* ---- QCheck round-trip properties ---- *)

(* Floats that print exactly under the emitter's %.12g: dyadic rationals
   with small numerators.  (Arbitrary doubles can need 17 significant
   digits, which is a printer limitation, not a parser bug.) *)
let gen_dyadic = QCheck.Gen.(map (fun a -> float_of_int a /. 8.0) (int_range (-8_000_000) 8_000_000))

(* Strings over the full byte range: exercises the \uXXXX control-char
   escapes, the quote/backslash escapes, and raw high bytes. *)
let gen_raw_string = QCheck.Gen.(string_size ~gen:char (int_bound 20))

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [
              return Analysis.Json.Null;
              map (fun b -> Analysis.Json.Bool b) bool;
              map (fun i -> Analysis.Json.Int i) int;
              map (fun f -> Analysis.Json.Float f) gen_dyadic;
              map (fun s -> Analysis.Json.String s) gen_raw_string;
            ]
        in
        if size = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun l -> Analysis.Json.List l) (list_size (int_bound 4) (self (size / 2))));
              ( 1,
                map
                  (fun l -> Analysis.Json.Obj l)
                  (list_size (int_bound 4) (pair gen_raw_string (self (size / 2)))) );
            ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json print/parse round-trip"
    (QCheck.make ~print:(fun j -> Analysis.Json.to_string j) gen_json)
    (fun j ->
      Analysis.Json.parse (Analysis.Json.to_string j) = j
      && Analysis.Json.parse (Analysis.Json.to_string ~pretty:true j) = j)

(* Predictions come all-or-nothing (the harness sets the four fields
   together), with [lo <= hi]; slack 0 exercises the elided-lo encoding,
   nonzero slack the explicit predicted_bits_lo key. *)
let gen_predictions =
  QCheck.Gen.(
    oneof
      [
        return (None, None, None, None);
        map
          (fun ((hi, slack), (m, r)) -> (Some hi, Some (max 0 (hi - slack)), Some m, Some r))
          (pair (pair small_nat small_nat) (pair small_nat small_nat));
      ])

let gen_run =
  QCheck.Gen.(
    map
      (fun (((experiment, series, n, h), (bits, messages, rounds, wall_ms)), preds) ->
        let predicted_bits, predicted_bits_lo, predicted_messages, predicted_rounds =
          preds
        in
        {
          Analysis.Bench_io.experiment;
          series;
          n;
          h;
          bits;
          messages;
          rounds;
          wall_ms;
          seed = None;
          peak_rss_mb = None;
          predicted_bits;
          predicted_bits_lo;
          predicted_messages;
          predicted_rounds;
        })
      (pair
         (pair
            (quad gen_raw_string gen_raw_string small_nat small_nat)
            (quad small_nat small_nat small_nat gen_dyadic))
         gen_predictions))

let gen_report =
  QCheck.Gen.(
    map
      (fun ((date, quick, jobs, total_wall_ms), (experiment_wall_ms, runs)) ->
        { Analysis.Bench_io.date; quick; jobs; total_wall_ms; experiment_wall_ms; runs })
      (pair
         (quad gen_raw_string bool (int_range 1 64) gen_dyadic)
         (pair
            (list_size (int_bound 5) (pair gen_raw_string gen_dyadic))
            (list_size (int_bound 8) gen_run))))

let prop_bench_io_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Bench_io report print/parse round-trip"
    (QCheck.make gen_report)
    (fun rep ->
      let s = Analysis.Json.to_string ~pretty:true (Analysis.Bench_io.report_to_json rep) in
      Analysis.Bench_io.report_of_json (Analysis.Json.parse s) = rep)

let test_bench_io_diff_counts_drift () =
  let bump r = { r with Analysis.Bench_io.bits = r.Analysis.Bench_io.bits + 8 } in
  let drifted_report =
    {
      sample_report with
      Analysis.Bench_io.runs =
        (match sample_report.Analysis.Bench_io.runs with
        | first :: rest -> bump first :: rest
        | [] -> []);
    }
  in
  let _, matched, drifted =
    Analysis.Bench_io.diff_table ~before:sample_report ~after:sample_report
  in
  Alcotest.(check int) "self-diff matches all" 2 matched;
  Alcotest.(check int) "self-diff has no drift" 0 drifted;
  let _, matched', drifted' =
    Analysis.Bench_io.diff_table ~before:sample_report ~after:drifted_report
  in
  Alcotest.(check int) "still matches" 2 matched';
  Alcotest.(check int) "one drifted run" 1 drifted';
  (* A changed prediction is drift too — but only when both sides carry
     one, so a /3-era baseline never flags against a /4 report. *)
  let bump_pred r =
    {
      r with
      Analysis.Bench_io.predicted_bits =
        Option.map (fun b -> b + 8) r.Analysis.Bench_io.predicted_bits;
    }
  in
  let pred_report =
    {
      sample_report with
      Analysis.Bench_io.runs = List.map bump_pred sample_report.Analysis.Bench_io.runs;
    }
  in
  let _, matched'', drifted'' =
    Analysis.Bench_io.diff_table ~before:sample_report ~after:pred_report
  in
  Alcotest.(check int) "prediction diff matches" 2 matched'';
  Alcotest.(check int) "only the record with a prediction drifts" 1 drifted'';
  let strip_pred r =
    {
      r with
      Analysis.Bench_io.predicted_bits = None;
      predicted_bits_lo = None;
      predicted_messages = None;
      predicted_rounds = None;
    }
  in
  let stripped =
    {
      sample_report with
      Analysis.Bench_io.runs = List.map strip_pred sample_report.Analysis.Bench_io.runs;
    }
  in
  let _, _, drifted_gain =
    Analysis.Bench_io.diff_table ~before:stripped ~after:sample_report
  in
  Alcotest.(check int) "gaining predictions is not drift" 0 drifted_gain

(* The diff's total wall covers only the runs both reports share: a
   one-row report against a two-row baseline must not compare the
   baseline's whole total against the one row. *)
let test_bench_io_diff_total_matched_only () =
  let one_row =
    {
      sample_report with
      Analysis.Bench_io.total_wall_ms = 10.0;
      runs =
        List.filter
          (fun r -> r.Analysis.Bench_io.experiment = "E9")
          sample_report.Analysis.Bench_io.runs
        |> List.map (fun r -> { r with Analysis.Bench_io.wall_ms = 3.0 });
    }
  in
  let _, matched, _ = Analysis.Bench_io.diff_table ~before:sample_report ~after:one_row in
  Alcotest.(check int) "one shared run" 1 matched;
  let wall_b, wall_a =
    Analysis.Bench_io.matched_wall_ms ~before:sample_report ~after:one_row
  in
  Alcotest.(check (float 0.0)) "before total is the shared row's wall" 1.5 wall_b;
  Alcotest.(check (float 0.0)) "after total is the shared row's wall" 3.0 wall_a

(* Rows present in only one report are reported by key on their side,
   so a diff over different row sets says which rows it could not
   compare. *)
let test_bench_io_diff_unmatched_rows () =
  let keep exp rep =
    {
      rep with
      Analysis.Bench_io.runs =
        List.filter (fun r -> r.Analysis.Bench_io.experiment = exp) rep.Analysis.Bench_io.runs;
    }
  in
  let ids = List.map (fun r -> r.Analysis.Bench_io.experiment) in
  let check_unmatched name ~before ~after expected_before expected_after =
    let only_before, only_after = Analysis.Bench_io.unmatched ~before ~after in
    Alcotest.(check (list string)) (name ^ ": only before") expected_before (ids only_before);
    Alcotest.(check (list string)) (name ^ ": only after") expected_after (ids only_after)
  in
  check_unmatched "subset" ~before:sample_report ~after:(keep "E9" sample_report) [ "E1" ] [];
  check_unmatched "disjoint" ~before:(keep "E1" sample_report) ~after:(keep "E9" sample_report)
    [ "E1" ] [ "E9" ];
  check_unmatched "self" ~before:sample_report ~after:sample_report [] []

let () =
  Alcotest.run "analysis"
    [
      ( "complexity",
        [
          Alcotest.test_case "sweep averages" `Quick test_sweep_averages;
          Alcotest.test_case "exact power law" `Quick test_fit_exact_power_law;
          Alcotest.test_case "polylog factor" `Quick test_fit_with_polylog;
          Alcotest.test_case "degenerate inputs raise" `Quick test_fit_degenerate_inputs;
        ] );
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "arity checked" `Quick test_table_arity_checked;
          Alcotest.test_case "formatters" `Quick test_formatters;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "json roundtrip" `Quick test_bench_io_roundtrip;
          Alcotest.test_case "save/load" `Quick test_bench_io_save_load;
          Alcotest.test_case "schema checked" `Quick test_bench_io_schema_checked;
          Alcotest.test_case "legacy /1 schema loads" `Quick test_bench_io_legacy_schema;
          Alcotest.test_case "diff counts drift" `Quick test_bench_io_diff_counts_drift;
          Alcotest.test_case "diff total wall over matched runs" `Quick
            test_bench_io_diff_total_matched_only;
          Alcotest.test_case "diff reports rows in only one report" `Quick
            test_bench_io_diff_unmatched_rows;
          Alcotest.test_case "golden /4 fixture byte-stable" `Quick
            test_fixture_v4_golden_roundtrip;
          Alcotest.test_case "legacy /1../3 fixtures load" `Quick
            test_fixture_legacy_schemas_load;
          QCheck_alcotest.to_alcotest prop_bench_io_roundtrip;
        ] );
    ]
