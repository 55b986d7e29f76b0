type t = {
  name : string;
  submit : src:int -> dst:int -> bytes -> unit;
  advance : deliver:(src:int -> dst:int -> bytes -> unit) -> unit;
  in_flight : unit -> int;
}

(* The pending-message structure that used to live inside [Net.t], moved
   behind the interface unchanged: delivery order (ascending sender id,
   then send order) and per-call costs are identical, which the committed
   bench baselines gate. *)

let sync_dense ~n =
  let pending = Array.init n (fun _ -> Queue.create ()) in
  let count = ref 0 in
  {
    name = "sync";
    submit =
      (fun ~src ~dst payload ->
        Queue.push (dst, payload) pending.(src);
        incr count);
    advance =
      (fun ~deliver ->
        if !count > 0 then begin
          for src = 0 to n - 1 do
            let q = pending.(src) in
            while not (Queue.is_empty q) do
              let dst, payload = Queue.pop q in
              deliver ~src ~dst payload
            done
          done;
          count := 0
        end);
    in_flight = (fun () -> !count);
  }
