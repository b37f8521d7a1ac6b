type entry = {
  client : Runtime.Types.proc_id;
  request : Etx_types.request;
  j : int;
  keys : Business.keyset;
}

(* [members] holds the (rid, j) of every entry in [q]; the two change
   together everywhere below *)
type t = { q : entry Queue.t; members : (int * int, unit) Hashtbl.t }

let id e = (e.request.rid, e.j)
let create () = { q = Queue.create (); members = Hashtbl.create 64 }
let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
let mem t ~rid ~j = Hashtbl.mem t.members (rid, j)

let push t e =
  if not (Hashtbl.mem t.members (id e)) then begin
    Hashtbl.replace t.members (id e) ();
    Queue.push e t.q
  end

(* [head] becomes the front of [t.q]: two O(1) transfers *)
let prepend t head =
  Queue.transfer t.q head;
  Queue.transfer head t.q

let push_front t entries =
  let head = Queue.create () in
  List.iter
    (fun e ->
      if not (Hashtbl.mem t.members (id e)) then begin
        Hashtbl.replace t.members (id e) ();
        Queue.push e head
      end)
    entries;
  prepend t head

let clear t =
  Queue.clear t.q;
  Hashtbl.reset t.members

let transfer t ~into =
  Queue.iter (push into) t.q;
  clear t

let meets xs ys = List.exists (fun x -> List.exists (String.equal x) ys) xs

let conflicts (a : Business.keyset) (b : Business.keyset) =
  meets a.writes b.reads || meets a.writes b.writes || meets b.writes a.reads

let take t ~cap ~skip =
  let deferred = Queue.create () in
  let clashes e (x : entry) = conflicts e.keys x.keys in
  let rec scan window n =
    if n >= cap || Queue.length deferred >= cap || Queue.is_empty t.q then
      List.rev window
    else
      let e = Queue.pop t.q in
      if skip e then begin
        Hashtbl.remove t.members (id e);
        scan window n
      end
      else if
        List.exists (clashes e) window
        || Queue.fold (fun acc x -> acc || clashes e x) false deferred
      then begin
        (* still queued: its membership stays *)
        Queue.push e deferred;
        scan window n
      end
      else begin
        Hashtbl.remove t.members (id e);
        scan (e :: window) (n + 1)
      end
  in
  let window = scan [] 0 in
  if not (Queue.is_empty deferred) then prepend t deferred;
  window
