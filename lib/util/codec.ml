type writer = Buffer.t

let writer () = Buffer.create 64
let contents w = Buffer.to_bytes w

(* Reusing one writer across many messages keeps the Buffer's grown
   capacity, so the per-message cost is one [contents] copy instead of a
   fresh allocation plus O(log size) doubling copies. *)
let reset w = Buffer.clear w

let encode_into w f v =
  Buffer.clear w;
  f w v;
  Buffer.to_bytes w

(* Varints use the LEB128-style 7-bits-per-byte scheme on the two's
   complement representation, so negative ints terminate (10 bytes max). *)
let write_varint w v =
  let rec go v =
    let low = v land 0x7F in
    let rest = v lsr 7 in
    if rest = 0 then Buffer.add_char w (Char.chr low)
    else begin
      Buffer.add_char w (Char.chr (low lor 0x80));
      go rest
    end
  in
  go v

let write_int64 w v =
  for i = 0 to 7 do
    Buffer.add_char w (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let write_bool w b = Buffer.add_char w (if b then '\001' else '\000')

let write_byte w v =
  if v < 0 || v > 255 then invalid_arg "Codec.write_byte";
  Buffer.add_char w (Char.chr v)

let write_raw w b = Buffer.add_bytes w b

let write_bytes w b =
  write_varint w (Bytes.length b);
  Buffer.add_bytes w b

let write_string w s =
  write_varint w (String.length s);
  Buffer.add_string w s

let write_list w f lst =
  write_varint w (List.length lst);
  List.iter (fun x -> f w x) lst

let write_array w f arr =
  write_varint w (Array.length arr);
  Array.iter (fun x -> f w x) arr

let write_pair w fa fb (a, b) =
  fa w a;
  fb w b

let write_option w f = function
  | None -> write_bool w false
  | Some v ->
    write_bool w true;
    f w v

(* A reader is a cursor over a [limit]-bounded window of [data]; the
   whole-buffer constructor sets the window to the full buffer, [of_sub]
   to a slice — decoding a message embedded in a larger buffer then needs
   no [Bytes.sub] copy. *)
type reader = { data : bytes; mutable pos : int; limit : int }

exception Decode_error of string

let reader data = { data; pos = 0; limit = Bytes.length data }

let of_sub data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg
      (Printf.sprintf "Codec.of_sub: [%d, %d+%d) outside buffer of %d bytes" pos pos len
         (Bytes.length data));
  { data; pos; limit = pos + len }

let at_end r = r.pos >= r.limit

(* Every decode error names the failing offset and, where a length was
   involved, the expected vs available byte counts — "which offset of
   which message" is the whole diagnosis. *)
let need r k =
  if k < 0 then
    raise (Decode_error (Printf.sprintf "negative length %d at offset %d" k r.pos));
  if r.pos + k > r.limit then
    raise
      (Decode_error
         (Printf.sprintf "need %d bytes at offset %d, but only %d remain (window ends at %d)"
            k r.pos (r.limit - r.pos) r.limit))

let read_byte r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_varint r =
  let start = r.pos in
  let rec go shift acc =
    if shift > 62 then
      raise
        (Decode_error
           (Printf.sprintf "varint at offset %d too long (10th continuation byte at offset %d)"
              start r.pos));
    let b = read_byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_int64 r =
  need r 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get r.data (r.pos + i))))
  done;
  r.pos <- r.pos + 8;
  !v

let read_bool r =
  match read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> raise (Decode_error (Printf.sprintf "bad bool byte %d at offset %d" b (r.pos - 1)))

let read_raw r len =
  need r len;
  let b = Bytes.sub r.data r.pos len in
  r.pos <- r.pos + len;
  b

let read_bytes r =
  let len = read_varint r in
  read_raw r len

(* ---- Zero-copy views ---- *)

type view = { buf : bytes; off : int; len : int }

let read_raw_view r len =
  need r len;
  let v = { buf = r.data; off = r.pos; len } in
  r.pos <- r.pos + len;
  v

let read_bytes_view r =
  let len = read_varint r in
  read_raw_view r len

let view_to_bytes v = Bytes.sub v.buf v.off v.len

(* Eight bytes per step while a whole word is left on both sides, then the
   tail byte by byte.  Native-endian loads are fine: only equality is
   asked, never order. *)
let view_equal_bytes v b =
  v.len = Bytes.length b
  &&
  let words = v.len - (v.len land 7) in
  let k = ref 0 in
  while !k < words && Bytes.get_int64_ne v.buf (v.off + !k) = Bytes.get_int64_ne b !k do
    k := !k + 8
  done;
  !k >= words
  &&
  begin
    while !k < v.len && Bytes.unsafe_get v.buf (v.off + !k) = Bytes.unsafe_get b !k do
      incr k
    done;
    !k = v.len
  end

let reader_of_view v = { data = v.buf; pos = v.off; limit = v.off + v.len }

let write_view w v = Buffer.add_subbytes w v.buf v.off v.len

let read_string r = Bytes.to_string (read_bytes r)

(* Every list/array element occupies at least one wire byte, so a count
   exceeding the remaining window is garbage (a torn or corrupted frame).
   Rejecting it BEFORE allocating matters: [Array.init] materializes the
   full array up front, so an unchecked 2^40 claimed by a flipped varint
   is an out-of-memory bomb rather than a clean [Decode_error]. *)
let read_count r len =
  if len > r.limit - r.pos then
    raise
      (Decode_error
         (Printf.sprintf "implausible count %d at offset %d (only %d bytes left)" len r.pos
            (r.limit - r.pos)));
  len

let read_list r f =
  let len = read_count r (read_varint r) in
  List.init len (fun _ -> f r)

let read_array r f =
  let len = read_count r (read_varint r) in
  Array.init len (fun _ -> f r)

let read_pair r fa fb =
  let a = fa r in
  let b = fb r in
  (a, b)

let read_option r f = if read_bool r then Some (f r) else None

let encode f v =
  let w = writer () in
  f w v;
  contents w

let trailing r =
  raise
    (Decode_error
       (Printf.sprintf "%d trailing bytes at offset %d (window ends at %d)" (r.limit - r.pos)
          r.pos r.limit))

let decode f b =
  let r = reader b in
  let v = f r in
  if not (at_end r) then trailing r;
  v

let decode_view f v =
  let r = reader_of_view v in
  let x = f r in
  if not (at_end r) then trailing r;
  x

let varint_size v =
  let rec go v acc = if v lsr 7 = 0 then acc else go (v lsr 7) (acc + 1) in
  go v 1

let encode_int_list lst = encode (fun w -> write_list w write_varint) lst
let decode_int_list b = decode (fun r -> read_list r read_varint) b
