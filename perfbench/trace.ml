(* In-memory spans around the benchmark's calls into each layer's
   public functions.  A span has a name, a start, an end, its parent
   span and a key naming the instance or request it belongs to.  Spans
   are written out as JSON lines once the run ends; a layer's self
   time is its duration minus the part its child spans cover. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  key : string;
  start : float;
  stop : float;
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }

let fresh t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

(* Record a span measured by the caller; [id] defaults to a fresh one
   (allocate it first with [fresh] when children must name it). *)
let add t ?id ?(parent = -1) ~key name ~start ~stop =
  let id = match id with Some id -> id | None -> fresh t in
  Mutex.lock t.lock;
  t.spans <- { id; parent; name; key; start; stop } :: t.spans;
  Mutex.unlock t.lock

(* Run [f id] inside a span; [id] is the parent for nested spans. *)
let span t ?parent ~key name f =
  let id = fresh t in
  let start = Util.now () in
  Fun.protect
    ~finally:(fun () -> add t ~id ?parent ~key name ~start ~stop:(Util.now ()))
    (fun () -> f id)

let spans t =
  Mutex.lock t.lock;
  let s = List.rev t.spans in
  Mutex.unlock t.lock;
  s

(* (span, self seconds) for every span. *)
let self_times t =
  let all = spans t in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (c +. (s.stop -. s.start)))
    all;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      (s, s.stop -. s.start -. c))
    all

let write t path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"key\": %S, \"start\": \
         %.6f, \"end\": %.6f, \"self\": %.6f}\n"
        s.id s.parent s.name s.key s.start s.stop self)
    (self_times t);
  close_out oc
