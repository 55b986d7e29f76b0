(* Tests for the foundation utilities: PRNG, codec, stats, collections. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 in
  let b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Prng.bits64 a) (Util.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create 1 in
  let b = Util.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Prng.bits64 a = Util.Prng.bits64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let rng = Util.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let rng = Util.Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int_in rng (-5) 5 in
    checkb "in range" true (v >= -5 && v <= 5)
  done

let test_prng_int_rejects_bad () =
  let rng = Util.Prng.create 9 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int rng 0))

let test_prng_uniformity () =
  (* chi-square-ish sanity: 10 buckets, 10k draws, each bucket within 30%. *)
  let rng = Util.Prng.create 123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter (fun c -> checkb "bucket balance" true (c > 700 && c < 1300)) buckets

let test_prng_float_range () =
  let rng = Util.Prng.create 10 in
  for _ = 1 to 10_000 do
    let f = Util.Prng.float rng in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_bernoulli_bias () =
  let rng = Util.Prng.create 11 in
  let count = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Util.Prng.bernoulli rng 0.3 then incr count
  done;
  let rate = float_of_int !count /. float_of_int trials in
  checkb "bias close to 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_prng_bernoulli_extremes () =
  let rng = Util.Prng.create 12 in
  checkb "p=0 never" false (Util.Prng.bernoulli rng 0.0);
  checkb "p=1 always" true (Util.Prng.bernoulli rng 1.0);
  checkb "p<0 never" false (Util.Prng.bernoulli rng (-1.0));
  checkb "p>1 always" true (Util.Prng.bernoulli rng 2.0)

let test_prng_split_independent () =
  let a = Util.Prng.create 42 in
  let b = Util.Prng.split a in
  let c = Util.Prng.split a in
  checkb "split streams differ" true (Util.Prng.bits64 b <> Util.Prng.bits64 c)

let test_prng_copy () =
  let a = Util.Prng.create 5 in
  ignore (Util.Prng.bits64 a);
  let b = Util.Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Util.Prng.bits64 a) (Util.Prng.bits64 b)

(* ---- Prng.derive: keyed substreams ---- *)

(* Draw [n] words in a defined order (List.init's application order is
   unspecified). *)
let draws rng n =
  let rec go acc i = if i = 0 then List.rev acc else go (Util.Prng.bits64 rng :: acc) (i - 1) in
  go [] n

let derive_prefix rng ~key = draws (Util.Prng.derive rng ~key) 4

let prop_derive_order_independent =
  QCheck.Test.make ~count:200 ~name:"derive: child streams independent of derivation order"
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 8) small_nat))
    (fun (seed, keys) ->
      let keys = List.sort_uniq compare keys in
      let rng = Util.Prng.create seed in
      let forward = List.map (fun k -> (k, derive_prefix rng ~key:k)) keys in
      let rng' = Util.Prng.create seed in
      let backward = List.map (fun k -> (k, derive_prefix rng' ~key:k)) (List.rev keys) in
      List.for_all (fun (k, prefix) -> List.assoc k backward = prefix) forward)

let prop_derive_distinct_keys =
  QCheck.Test.make ~count:200 ~name:"derive: distinct keys give distinct prefixes"
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, k1, k2) ->
      QCheck.assume (k1 <> k2);
      let rng = Util.Prng.create seed in
      derive_prefix rng ~key:k1 <> derive_prefix rng ~key:k2)

let prop_derive_parent_untouched =
  QCheck.Test.make ~count:200 ~name:"derive: parent stream position unaffected"
    QCheck.(pair small_nat (list small_nat))
    (fun (seed, keys) ->
      let a = Util.Prng.create seed in
      let b = Util.Prng.create seed in
      List.iter (fun k -> ignore (Util.Prng.derive b ~key:k)) keys;
      draws a 8 = draws b 8)

(* ---- Prng limb arithmetic vs straight Int64 reference ----

   lib/util/prng.ml computes SplitMix64/Xoshiro256** on 32-bit native-int
   limbs to avoid Int64 boxing.  This reference implementation is the
   textbook Int64 version; the property pins the limb code word-for-word
   against it across seeding, the main stream, and keyed derivation. *)
module Prng_ref = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix_next (state : int64 ref) : int64 =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let of_seed64 (seed : int64) : t =
    let st = ref seed in
    let s0 = splitmix_next st in
    let s1 = splitmix_next st in
    let s2 = splitmix_next st in
    let s3 = splitmix_next st in
    if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
      { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
    else { s0; s1; s2; s3 }

  let create seed = of_seed64 (Int64.of_int seed)

  let rotl (x : int64) (k : int) : int64 =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let derive t ~key =
    let open Int64 in
    let digest =
      logxor (logxor t.s0 (rotl t.s1 17)) (logxor (rotl t.s2 31) (rotl t.s3 47))
    in
    let st = ref (logxor digest (of_int key)) in
    let seed = logxor (splitmix_next st) (splitmix_next st) in
    of_seed64 seed
end

let prop_prng_matches_int64_reference =
  QCheck.Test.make ~count:300 ~name:"prng: limb arithmetic = Int64 reference"
    QCheck.(triple int small_nat small_nat)
    (fun (seed, nsteps, key) ->
      let a = Util.Prng.create seed in
      let r = Prng_ref.create seed in
      let ok = ref true in
      for _ = 0 to nsteps do
        if Util.Prng.bits64 a <> Prng_ref.bits64 r then ok := false
      done;
      (* Keyed derivation from the advanced state, then its stream. *)
      let da = Util.Prng.derive a ~key and dr = Prng_ref.derive r ~key in
      for _ = 0 to 7 do
        if Util.Prng.bits64 da <> Prng_ref.bits64 dr then ok := false
      done;
      (* Negative keys exercise the sign-extended key fold. *)
      let da' = Util.Prng.derive a ~key:(-key - 1) and dr' = Prng_ref.derive r ~key:(-key - 1) in
      !ok && Util.Prng.bits64 da' = Prng_ref.bits64 dr')

let test_sample_without_replacement () =
  let rng = Util.Prng.create 13 in
  for k = 0 to 20 do
    let s = Util.Prng.sample_without_replacement rng ~n:20 ~k in
    checki "size" k (List.length s);
    checki "distinct" k (List.length (List.sort_uniq compare s));
    List.iter (fun v -> checkb "range" true (v >= 0 && v < 20)) s;
    checkb "sorted" true (List.sort compare s = s)
  done

let test_sample_covers_everything () =
  let rng = Util.Prng.create 14 in
  let s = Util.Prng.sample_without_replacement rng ~n:5 ~k:5 in
  check Alcotest.(list int) "full sample" [ 0; 1; 2; 3; 4 ] s

let test_shuffle_permutation () =
  let rng = Util.Prng.create 15 in
  let arr = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_subset_bernoulli () =
  let rng = Util.Prng.create 16 in
  let s = Util.Prng.subset_bernoulli rng ~n:1000 ~p:0.2 in
  let len = List.length s in
  checkb "rough size" true (len > 140 && len < 270);
  checkb "sorted distinct" true (List.sort_uniq compare s = s)

(* ---- Codec ---- *)

let test_codec_varint_roundtrip () =
  List.iter
    (fun v ->
      let b = Util.Codec.encode (fun w -> Util.Codec.write_varint w) v in
      checki (Printf.sprintf "varint %d" v) v (Util.Codec.decode (fun r -> Util.Codec.read_varint r) b))
    [ 0; 1; 127; 128; 255; 256; 16383; 16384; 1 lsl 30; max_int ]

let test_codec_varint_size () =
  checki "1 byte" 1 (Util.Codec.varint_size 127);
  checki "2 bytes" 2 (Util.Codec.varint_size 128);
  checki "2 bytes" 2 (Util.Codec.varint_size 16383);
  checki "3 bytes" 3 (Util.Codec.varint_size 16384)

let test_codec_int64 () =
  List.iter
    (fun v ->
      let b = Util.Codec.encode (fun w -> Util.Codec.write_int64 w) v in
      check Alcotest.int64 "int64" v (Util.Codec.decode (fun r -> Util.Codec.read_int64 r) b))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xDEADBEEFL ]

let test_codec_compound () =
  let value = ([ (1, "a"); (2, "bb"); (300, "") ], Some (Bytes.of_string "xyz")) in
  let enc w (lst, opt) =
    Util.Codec.write_list w
      (fun w (i, s) ->
        Util.Codec.write_varint w i;
        Util.Codec.write_string w s)
      lst;
    Util.Codec.write_option w Util.Codec.write_bytes opt
  in
  let b = Util.Codec.encode enc value in
  let lst, opt =
    Util.Codec.decode
      (fun r ->
        let lst =
          Util.Codec.read_list r (fun r ->
              let i = Util.Codec.read_varint r in
              let s = Util.Codec.read_string r in
              (i, s))
        in
        let opt = Util.Codec.read_option r Util.Codec.read_bytes in
        (lst, opt))
      b
  in
  checkb "list" true (lst = fst value);
  checkb "option" true (opt = snd value)

let test_codec_trailing_bytes_rejected () =
  let b = Bytes.of_string "\001\002" in
  Alcotest.check_raises "trailing"
    (Util.Codec.Decode_error "1 trailing bytes at offset 1 (window ends at 2)") (fun () ->
      ignore (Util.Codec.decode (fun r -> Util.Codec.read_byte r) b))

(* Decode errors carry the failing offset and the expected/actual byte
   counts, so a bad message is debuggable from the error alone. *)
let test_codec_error_offsets () =
  let msg f =
    try
      ignore (f ());
      Alcotest.fail "expected Decode_error"
    with Util.Codec.Decode_error m -> m
  in
  (* Underflow: 3 bytes wanted at offset 1 of a 2-byte buffer. *)
  let m =
    msg (fun () ->
        Util.Codec.decode
          (fun r ->
            ignore (Util.Codec.read_byte r);
            Util.Codec.read_raw r 3)
          (Bytes.of_string "\001\002"))
  in
  checkb "underflow names offset" true
    (m = "need 3 bytes at offset 1, but only 1 remain (window ends at 2)");
  (* Unterminated varint: ten continuation bytes. *)
  let m =
    msg (fun () -> Util.Codec.decode Util.Codec.read_varint (Bytes.make 10 '\xff'))
  in
  checkb "varint names start offset" true
    (m = "varint at offset 0 too long (10th continuation byte at offset 9)");
  (* Bad bool byte, not at offset 0. *)
  let m =
    msg (fun () ->
        Util.Codec.decode
          (fun r ->
            ignore (Util.Codec.read_byte r);
            Util.Codec.read_bool r)
          (Bytes.of_string "\000\007"))
  in
  checkb "bool names offset" true (m = "bad bool byte 7 at offset 1")

let test_codec_underflow_rejected () =
  let b = Bytes.of_string "" in
  checkb "raises" true
    (try
       ignore (Util.Codec.decode (fun r -> Util.Codec.read_byte r) b);
       false
     with Util.Codec.Decode_error _ -> true)

(* A list/array count larger than the bytes left in the window is
   rejected before allocating.  The message is asserted, not just the
   exception: without the guard the element reads still underflow, but
   with a "need N bytes" error instead. *)
let test_codec_implausible_count () =
  let prefix = "implausible count" in
  let count_error what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Decode_error" what
    | exception Util.Codec.Decode_error m ->
      if not (String.starts_with ~prefix m) then
        Alcotest.failf "%s: expected %S..., got %S" what prefix m
  in
  (* Count 100, then three one-byte elements. *)
  let b = Bytes.of_string "\100\001\002\003" in
  count_error "read_list" (fun () ->
      Util.Codec.read_list (Util.Codec.reader b) Util.Codec.read_varint);
  count_error "read_array" (fun () ->
      Util.Codec.read_array (Util.Codec.reader b) Util.Codec.read_varint);
  (* Count 3 is plausible against the whole buffer (4 bytes follow) but
     not within a window that ends after two of them. *)
  let b = Bytes.of_string "\003\001\002\003\004" in
  let window () = Util.Codec.of_sub b ~pos:0 ~len:3 in
  count_error "read_list in window" (fun () ->
      Util.Codec.read_list (window ()) Util.Codec.read_varint);
  count_error "read_array in window" (fun () ->
      Util.Codec.read_array (window ()) Util.Codec.read_varint);
  (* A count equal to the bytes left still decodes. *)
  let exact = Util.Codec.of_sub b ~pos:0 ~len:4 in
  check Alcotest.(list int) "exact count, list" [ 1; 2; 3 ]
    (Util.Codec.read_list exact Util.Codec.read_varint);
  check Alcotest.(array int) "exact count, array" [| 1; 2; 3 |]
    (Util.Codec.read_array (Util.Codec.of_sub b ~pos:0 ~len:4) Util.Codec.read_varint)

let test_codec_int_list () =
  let lst = [ 5; 0; 99; 1000000 ] in
  check Alcotest.(list int) "int list" lst (Util.Codec.decode_int_list (Util.Codec.encode_int_list lst))

let codec_prop_bytes =
  QCheck.Test.make ~name:"codec bytes roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let b = Bytes.of_string s in
      let enc = Util.Codec.encode (fun w -> Util.Codec.write_bytes w) b in
      Bytes.equal b (Util.Codec.decode (fun r -> Util.Codec.read_bytes r) enc))

let codec_prop_varint_list =
  QCheck.Test.make ~name:"codec int list roundtrip" ~count:500
    QCheck.(list (int_bound 1_000_000))
    (fun lst -> Util.Codec.decode_int_list (Util.Codec.encode_int_list lst) = lst)

(* ---- Slice readers and zero-copy views ---- *)

(* One compound message exercising every combinator; decoding it through a
   whole-buffer reader and through an [of_sub] window (the same payload
   embedded in junk) must agree, byte-for-byte and error-for-error. *)
type probe = {
  p_varint : int;
  p_int64 : int64;
  p_bool : bool;
  p_byte : int;
  p_bytes : bytes;
  p_raw : bytes;
  p_string : string;
  p_list : int list;
  p_array : bool array;
  p_pair : int * string;
  p_option : bytes option;
}

let write_probe w p =
  Util.Codec.write_varint w p.p_varint;
  Util.Codec.write_int64 w p.p_int64;
  Util.Codec.write_bool w p.p_bool;
  Util.Codec.write_byte w p.p_byte;
  Util.Codec.write_bytes w p.p_bytes;
  Util.Codec.write_varint w (Bytes.length p.p_raw);
  Util.Codec.write_raw w p.p_raw;
  Util.Codec.write_string w p.p_string;
  Util.Codec.write_list w Util.Codec.write_varint p.p_list;
  Util.Codec.write_array w Util.Codec.write_bool p.p_array;
  Util.Codec.write_pair w Util.Codec.write_varint Util.Codec.write_string p.p_pair;
  Util.Codec.write_option w Util.Codec.write_bytes p.p_option

let read_probe r =
  let p_varint = Util.Codec.read_varint r in
  let p_int64 = Util.Codec.read_int64 r in
  let p_bool = Util.Codec.read_bool r in
  let p_byte = Util.Codec.read_byte r in
  let p_bytes = Util.Codec.read_bytes r in
  let p_raw = Util.Codec.read_raw r (Util.Codec.read_varint r) in
  let p_string = Util.Codec.read_string r in
  let p_list = Util.Codec.read_list r Util.Codec.read_varint in
  let p_array = Util.Codec.read_array r Util.Codec.read_bool in
  let p_pair = Util.Codec.read_pair r Util.Codec.read_varint Util.Codec.read_string in
  let p_option = Util.Codec.read_option r Util.Codec.read_bytes in
  { p_varint; p_int64; p_bool; p_byte; p_bytes; p_raw; p_string; p_list; p_array; p_pair; p_option }

let probe_gen =
  QCheck.Gen.(
    let bytes_gen = map Bytes.of_string (string_size (0 -- 40)) in
    map
      (fun ((v, i64, b, by), (bs, raw, s, l), (arr, pr, opt)) ->
        { p_varint = v;
          p_int64 = i64;
          p_bool = b;
          p_byte = by;
          p_bytes = bs;
          p_raw = raw;
          p_string = s;
          p_list = l;
          p_array = Array.of_list arr;
          p_pair = pr;
          p_option = opt
        })
      (triple
         (quad int int64 bool (0 -- 255))
         (quad bytes_gen bytes_gen (string_size (0 -- 30)) (list_size (0 -- 20) int))
         (triple (list_size (0 -- 20) bool) (pair int (string_size (0 -- 10)))
            (option bytes_gen))))

let probe_arb = QCheck.make probe_gen

let codec_prop_slice_reader_equiv =
  QCheck.Test.make ~name:"of_sub window decode = whole-buffer decode (all combinators)"
    ~count:300
    QCheck.(pair probe_arb (pair small_nat small_nat))
    (fun (p, (npre, nsuf)) ->
      let payload = Util.Codec.encode write_probe p in
      let whole = Util.Codec.decode read_probe payload in
      (* Embed the payload between junk prefix/suffix bytes; the window
         reader must see exactly the same message. *)
      let buf =
        Bytes.concat Bytes.empty
          [ Bytes.make npre '\xAA'; payload; Bytes.make nsuf '\xBB' ]
      in
      let r = Util.Codec.of_sub buf ~pos:npre ~len:(Bytes.length payload) in
      let sliced = read_probe r in
      whole = sliced && Util.Codec.at_end r)

let codec_prop_slice_reader_bounds =
  QCheck.Test.make ~name:"of_sub window bounds reads like a short buffer" ~count:300
    QCheck.(pair probe_arb (1 -- 12))
    (fun (p, cut) ->
      let payload = Util.Codec.encode write_probe p in
      let len = Bytes.length payload in
      let cut = min cut len in
      (* Truncating the window by [cut] bytes must fail exactly like
         decoding a truncated copy of the buffer. *)
      let window () =
        let r = Util.Codec.of_sub payload ~pos:0 ~len:(len - cut) in
        ignore (read_probe r)
      in
      let truncated () =
        ignore (Util.Codec.decode read_probe (Bytes.sub payload 0 (len - cut)))
      in
      let fails f =
        match f () with
        | () -> false
        | exception Util.Codec.Decode_error _ -> true
      in
      (* The cut can land inside trailing junk-tolerant space only if the
         last field shrank; both readers must agree either way. *)
      fails window = fails truncated)

let codec_prop_views_equiv =
  QCheck.Test.make ~name:"view reads = copying reads; views round-trip" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 40)))
    (fun (s1, s2) ->
      let b1 = Bytes.of_string s1 and b2 = Bytes.of_string s2 in
      let enc =
        Util.Codec.encode
          (fun w () ->
            Util.Codec.write_bytes w b1;
            Util.Codec.write_varint w (Bytes.length b2);
            Util.Codec.write_raw w b2)
          ()
      in
      (* Zero-copy pass. *)
      let r = Util.Codec.reader enc in
      let v1 = Util.Codec.read_bytes_view r in
      let n2 = Util.Codec.read_varint r in
      let v2 = Util.Codec.read_raw_view r n2 in
      let ok_contents =
        Bytes.equal (Util.Codec.view_to_bytes v1) b1
        && Bytes.equal (Util.Codec.view_to_bytes v2) b2
        && Util.Codec.view_equal_bytes v1 b1
        && Util.Codec.view_equal_bytes v2 b2
        && (Bytes.length b1 = Bytes.length b2 || not (Util.Codec.view_equal_bytes v1 b2))
      in
      (* A reader over the view sees the window, bounded by it. *)
      let rv = Util.Codec.reader_of_view v1 in
      let ok_reader =
        Bytes.equal (Util.Codec.read_raw rv (Bytes.length b1)) b1 && Util.Codec.at_end rv
      in
      (* decode_view consumes the window exactly. *)
      let ok_decode =
        Bytes.equal (Util.Codec.decode_view (fun r -> Util.Codec.read_raw r (Bytes.length b2)) v2) b2
      in
      (* write_view appends the window verbatim (= write_raw of the copy). *)
      let reenc =
        Util.Codec.encode
          (fun w () ->
            Util.Codec.write_view w v1;
            Util.Codec.write_view w v2)
          ()
      in
      let ok_write = Bytes.equal reenc (Bytes.cat b1 b2) in
      ok_contents && ok_reader && ok_decode && ok_write && Util.Codec.at_end r)

(* [view_equal_bytes] against [Bytes.equal] on the copied window.  Views
   start at arbitrary (mostly unaligned) offsets inside a larger buffer;
   lengths 0-40 cover every [len mod 8]; the compared string either
   equals the window, differs from it in exactly one byte — placed in the
   first word, a middle word or the [len mod 8] tail — or has a
   different length. *)
let codec_prop_view_equal_oracle =
  let gen =
    QCheck.Gen.(
      map
        (fun (((off, len), (extra, where)), (pick, (flip, seed))) ->
          (off, len, extra, where, pick, flip, seed))
        (pair
           (pair (pair (0 -- 17) (0 -- 40)) (pair (0 -- 9) (0 -- 4)))
           (pair nat (pair (1 -- 255) nat))))
  in
  let print (off, len, extra, where, pick, flip, seed) =
    Printf.sprintf "off=%d len=%d extra=%d where=%d pick=%d flip=%d seed=%d" off len extra where
      pick flip seed
  in
  QCheck.Test.make ~name:"view_equal_bytes = Bytes.equal on the window" ~count:3000
    (QCheck.make ~print gen)
    (fun (off, len, extra, where, pick, flip, seed) ->
      let rng = Util.Prng.create seed in
      let buf = Bytes.init (off + len + extra) (fun _ -> Char.chr (Util.Prng.int rng 256)) in
      let window = Bytes.sub buf off len in
      let v = { Util.Codec.buf; off; len } in
      let words = len - (len land 7) in
      (* Flips one byte in [lo, hi), or anywhere when that region is empty
         (only the empty window stays unflipped). *)
      let flip_in lo hi =
        let lo, hi = if hi > lo then (lo, hi) else (0, len) in
        let b = Bytes.copy window in
        (if hi > lo then
           let k = lo + (pick mod (hi - lo)) in
           Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor flip)));
        b
      in
      let other =
        match where with
        | 0 -> Bytes.copy window
        | 1 -> flip_in 0 (min 8 len)
        | 2 -> flip_in 8 words
        | 3 -> flip_in words len
        | _ ->
          (* One byte longer or shorter, sharing the window's prefix. *)
          if len > 0 && pick land 1 = 0 then Bytes.sub window 0 (len - 1)
          else Bytes.cat window (Bytes.make 1 (Char.chr flip))
      in
      Util.Codec.view_equal_bytes v other = Bytes.equal window other)

(* ---- sample_into ≡ sample_without_replacement ---- *)

let prop_sample_into_matches_list =
  QCheck.Test.make ~name:"sample_into = sample_without_replacement (draws and result)"
    ~count:500
    QCheck.(triple small_nat (int_bound 60) (int_bound 60))
    (fun (seed, n, k) ->
      let n = max n 1 in
      let k = min k n in
      let r_list = Util.Prng.create (0x5A + seed) in
      let r_into = Util.Prng.create (0x5A + seed) in
      let expected = Util.Prng.sample_without_replacement r_list ~n ~k in
      let pos = 3 in
      let dst = Array.make (pos + k + 2) (-1) in
      let scratch = Array.make (max n 1) 0 in
      Util.Prng.sample_into r_into ~n ~k ~scratch ~dst ~pos;
      let got = Array.to_list (Array.sub dst pos k) in
      (* Identical draws consumed: the two streams must stay in lockstep. *)
      got = expected
      && Util.Prng.int r_list 1_000_000 = Util.Prng.int r_into 1_000_000
      && dst.(0) = -1
      && dst.(pos + k) = -1)

(* ---- Stats ---- *)

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_stats_mean_var () =
  checkb "mean" true (feq (Util.Stats.mean [ 1.0; 2.0; 3.0 ]) 2.0);
  checkb "variance" true (feq (Util.Stats.variance [ 1.0; 2.0; 3.0 ]) (2.0 /. 3.0));
  checkb "stddev" true (feq (Util.Stats.stddev [ 5.0; 5.0 ]) 0.0)

let test_stats_median_percentile () =
  checkb "odd median" true (feq (Util.Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  checkb "even median" true (feq (Util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  checkb "p0" true (feq (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0) 1.0);
  checkb "p100" true (feq (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 100.0) 3.0);
  checkb "p50" true (feq (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 50.0) 2.0)

let test_stats_linear_fit () =
  let slope, intercept, r2 = Util.Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  checkb "slope" true (feq slope 2.0);
  checkb "intercept" true (feq intercept 1.0);
  checkb "r2 perfect" true (feq r2 1.0)

let test_stats_loglog () =
  (* y = 3 x^2 exactly. *)
  let pts = List.map (fun x -> (float_of_int x, 3.0 *. float_of_int (x * x))) [ 1; 2; 4; 8; 16 ] in
  let k, c, r2 = Util.Stats.loglog_exponent pts in
  checkb "exponent 2" true (feq ~eps:1e-6 k 2.0);
  checkb "constant 3" true (feq ~eps:1e-6 c 3.0);
  checkb "r2" true (feq ~eps:1e-6 r2 1.0)

let test_stats_loglog_rejects_nonpositive () =
  checkb "raises" true
    (try
       ignore (Util.Stats.loglog_exponent [ (0.0, 1.0); (1.0, 2.0) ]);
       false
     with Invalid_argument _ -> true)

let test_stats_binomial_ci () =
  let lo, hi = Util.Stats.binomial_ci ~successes:50 ~trials:100 in
  checkb "contains p" true (lo < 0.5 && 0.5 < hi);
  checkb "sane width" true (hi -. lo < 0.25);
  let lo0, _ = Util.Stats.binomial_ci ~successes:0 ~trials:100 in
  checkb "zero successes lo=0" true (feq lo0 0.0)

let test_stats_histogram () =
  let h = Util.Stats.histogram [ 0.0; 0.5; 1.0; 1.5; 2.0 ] ~bins:2 in
  checki "bins" 2 (List.length h);
  checki "total count" 5 (List.fold_left (fun a (_, c) -> a + c) 0 h)

(* ---- Iset / Imap ---- *)

(* Ids spanning the whole usable range: dense protocol-scale ids, giant-
   tier party ids (10^5..10^6), and near-max outliers.  Membership and
   iteration must not degrade or collide far outside the dense range. *)
let gen_sparse_ids =
  QCheck.Gen.(
    list_size (int_bound 120)
      (oneof
         [
           int_bound 50;
           map (fun k -> 100_000 + k) (int_bound 1_000_000);
           map (fun k -> (1 lsl 50) + k) (int_bound 1000);
         ]))

let prop_iset_large_ids =
  QCheck.Test.make ~count:200 ~name:"Iset: union/inter/mem at ids >> 10^5"
    (QCheck.make QCheck.Gen.(pair gen_sparse_ids gen_sparse_ids))
    (fun (a, b) ->
      let sa = Util.Iset.of_list a and sb = Util.Iset.of_list b in
      let u = Util.Iset.union sa sb and i = Util.Iset.inter sa sb in
      List.for_all (fun v -> Util.Iset.mem v u) (a @ b)
      && Util.Iset.for_all (fun v -> Util.Iset.mem v sa && Util.Iset.mem v sb) i
      && (let l = Util.Iset.to_sorted_list u in
          l = List.sort_uniq compare (a @ b)))

let prop_imap_large_keys =
  QCheck.Test.make ~count:200 ~name:"Imap: add_multi/find_list at keys >> 10^5"
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) (pair (oneofl [ 3; 100_001; 999_983; 1 lsl 50 ]) small_int)))
    (fun kvs ->
      let m = List.fold_left (fun m (k, v) -> Util.Imap.add_multi k v m) Util.Imap.empty kvs in
      List.for_all
        (fun k ->
          Util.Imap.find_list k m
          = List.rev (List.filter_map (fun (k', v) -> if k' = k then Some v else None) kvs))
        [ 3; 100_001; 999_983; 1 lsl 50; 7 ])

let test_iset_range () =
  check Alcotest.(list int) "range" [ 2; 3; 4 ] (Util.Iset.to_sorted_list (Util.Iset.range 2 4));
  checkb "empty range" true (Util.Iset.is_empty (Util.Iset.range 4 2))

let test_imap_multi () =
  let m = Util.Imap.empty |> Util.Imap.add_multi 1 "a" |> Util.Imap.add_multi 1 "b" in
  check Alcotest.(list string) "multi" [ "b"; "a" ] (Util.Imap.find_list 1 m);
  check Alcotest.(list string) "missing" [] (Util.Imap.find_list 2 m)

(* ---- Pool lifecycle (the scheduling semantics live in test_pool.ml) ---- *)

let map_jobs_raises p =
  try
    ignore (Util.Pool.map_jobs p [| 1 |] (fun x -> x));
    false
  with Invalid_argument _ -> true

let test_pool_shutdown_idempotent () =
  let p = Util.Pool.create ~num_domains:2 () in
  checki "pool works before shutdown" 6
    (Array.fold_left ( + ) 0 (Util.Pool.map_jobs p [| 1; 2; 3 |] (fun x -> x)));
  (* Documented idempotent: repeated shutdowns must neither raise nor hang. *)
  Util.Pool.shutdown p;
  Util.Pool.shutdown p;
  Util.Pool.shutdown p

let test_pool_use_after_shutdown_raises () =
  let p = Util.Pool.create ~num_domains:1 () in
  Util.Pool.shutdown p;
  checkb "map_jobs after shutdown raises" true (map_jobs_raises p);
  (* A redundant shutdown must not resurrect the pool. *)
  Util.Pool.shutdown p;
  checkb "map_jobs still raises after double shutdown" true (map_jobs_raises p);
  checkb "and keeps raising" true (map_jobs_raises p)

let test_pool_zero_domains_shutdown () =
  (* The degenerate sequential pool follows the same lifecycle contract. *)
  let p = Util.Pool.create ~num_domains:0 () in
  checki "inline map works" 2
    (Array.fold_left ( + ) 0 (Util.Pool.map_jobs p [| 1 |] (fun x -> x + 1)));
  Util.Pool.shutdown p;
  Util.Pool.shutdown p;
  checkb "map_jobs after shutdown raises" true (map_jobs_raises p)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "int rejects bad bound" `Quick test_prng_int_rejects_bad;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bernoulli bias" `Quick test_prng_bernoulli_bias;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          QCheck_alcotest.to_alcotest prop_derive_order_independent;
          QCheck_alcotest.to_alcotest prop_derive_distinct_keys;
          QCheck_alcotest.to_alcotest prop_derive_parent_untouched;
          QCheck_alcotest.to_alcotest prop_prng_matches_int64_reference;
          QCheck_alcotest.to_alcotest prop_sample_into_matches_list;
          Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample covers all" `Quick test_sample_covers_everything;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "subset bernoulli" `Quick test_subset_bernoulli;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_codec_varint_roundtrip;
          Alcotest.test_case "varint size" `Quick test_codec_varint_size;
          Alcotest.test_case "int64 roundtrip" `Quick test_codec_int64;
          Alcotest.test_case "compound structures" `Quick test_codec_compound;
          Alcotest.test_case "trailing bytes rejected" `Quick test_codec_trailing_bytes_rejected;
          Alcotest.test_case "underflow rejected" `Quick test_codec_underflow_rejected;
          Alcotest.test_case "error offsets" `Quick test_codec_error_offsets;
          Alcotest.test_case "int list helper" `Quick test_codec_int_list;
          Alcotest.test_case "implausible count rejected" `Quick test_codec_implausible_count;
          QCheck_alcotest.to_alcotest codec_prop_bytes;
          QCheck_alcotest.to_alcotest codec_prop_varint_list;
          QCheck_alcotest.to_alcotest codec_prop_slice_reader_equiv;
          QCheck_alcotest.to_alcotest codec_prop_slice_reader_bounds;
          QCheck_alcotest.to_alcotest codec_prop_views_equiv;
          QCheck_alcotest.to_alcotest codec_prop_view_equal_oracle;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "use after shutdown raises" `Quick test_pool_use_after_shutdown_raises;
          Alcotest.test_case "zero-domain lifecycle" `Quick test_pool_zero_domains_shutdown;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_var;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "loglog exponent" `Quick test_stats_loglog;
          Alcotest.test_case "loglog rejects nonpositive" `Quick test_stats_loglog_rejects_nonpositive;
          Alcotest.test_case "binomial CI" `Quick test_stats_binomial_ci;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "collections",
        [
          Alcotest.test_case "iset range" `Quick test_iset_range;
          Alcotest.test_case "imap multi" `Quick test_imap_multi;
          QCheck_alcotest.to_alcotest prop_iset_large_ids;
          QCheck_alcotest.to_alcotest prop_imap_large_keys;
        ] );
    ]
