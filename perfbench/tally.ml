(* Operations attempted, failed and wrong in one run. *)

type t = {
  mutable attempted : int;
  mutable failed : int;  (** no answer: error, timeout, refusal *)
  mutable wrong : int;  (** answers that contradict the table *)
  quiet : bool;
}

let create ?(quiet = false) () = { attempted = 0; failed = 0; wrong = 0; quiet }

(* One operation that produced no answer. *)
let fail t why =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if not t.quiet then Util.log "failed: %s" why

(* One operation whose answer was checked. *)
let check t result =
  t.attempted <- t.attempted + 1;
  match result with
  | Ok () -> ()
  | Error why ->
    if t.wrong < 20 && not t.quiet then Util.log "WRONG: %s" why;
    t.wrong <- t.wrong + 1
