open Runtime
module Rt = Etx_runtime
open Dnet

type Types.payload +=
  | S_prepare of { key : string; ballot : int }  (** phase 1a *)
  | S_promise of {
      key : string;
      ballot : int;
      accepted : (int * Types.payload) option;
    }  (** phase 1b *)
  | S_accept of { key : string; ballot : int; value : Types.payload }
      (** phase 2a *)
  | S_accepted of { key : string; ballot : int }  (** phase 2b *)
  | S_nack of { key : string; ballot : int }
      (** a higher promise exists; the proposer should move on *)
  | S_learn of { key : string; value : Types.payload }

(* demux classes: acceptor-side requests and proposer-side replies each
   get their own mailbox bucket *)
let cls_request =
  Rt.register_class ~name:"synod-request" (function
    | S_prepare _ | S_accept _ | S_learn _ -> true
    | _ -> false)

let cls_reply =
  Rt.register_class ~name:"synod-reply" (function
    | S_promise _ | S_accepted _ | S_nack _ -> true
    | _ -> false)

(* acceptor + learner + proposer state for one instance at one process *)
type instance = {
  key : string;
  mutable promised : int;  (** highest ballot promised (-1 = none) *)
  mutable accepted : (int * Types.payload) option;
  mutable decided : Types.payload option;
  mutable proposing : bool;  (** a proposer fiber is active here *)
  mutable waiters : Rt.Wake.t option;
      (** local fibers blocked on the decision (proposers, the proposer
          fiber, register waits), woken by it; dropped once decided *)
}

type t = {
  self : Types.proc_id;
  peers : Types.proc_id list;
  index : int;  (** our slot in the ballot partition *)
  n : int;
  majority : int;
  ch : Rchannel.t;
  attempt_timeout : float;
  backoff : float;
  instances : (string, instance) Hashtbl.t;
  mutable on_decide : string -> unit;
}

let create ?(attempt_timeout = 50.) ?(backoff = 20.) ~peers ~ch () =
  let self = Rt.self () in
  let index =
    match List.find_index (fun p -> p = self) peers with
    | Some i -> i
    | None -> invalid_arg "Synod.create: self not among peers"
  in
  {
    self;
    peers;
    index;
    n = List.length peers;
    majority = (List.length peers / 2) + 1;
    ch;
    attempt_timeout;
    backoff;
    instances = Hashtbl.create 32;
    on_decide = ignore;
  }

let ensure t key =
  match Hashtbl.find_opt t.instances key with
  | Some inst -> inst
  | None ->
      let inst =
        {
          key;
          promised = -1;
          accepted = None;
          decided = None;
          proposing = false;
          waiters = None;
        }
      in
      Hashtbl.replace t.instances key inst;
      inst

(* On first learn, relay to every peer but [from], the one the value came
   from ([t.self] for a quorum reached here): it already knows. *)
let learn t inst ~from value =
  if inst.decided = None then begin
    inst.decided <- Some value;
    Option.iter Rt.Wake.wake inst.waiters;
    inst.waiters <- None;
    List.iter
      (fun p ->
        if p <> t.self && p <> from then
          Rchannel.send t.ch p (S_learn { key = inst.key; value }))
      t.peers;
    t.on_decide inst.key
  end

(* The wake [learn] fires for [inst]; one that never fires once the
   instance is decided. *)
let waiters inst =
  match inst.waiters with
  | Some w -> w
  | None ->
      let w = Rt.Wake.create () in
      if inst.decided = None then inst.waiters <- Some w;
      w

(* ---------------- acceptor / learner ---------------- *)

let dispatcher t () =
  let rec loop () =
    (match Rt.recv_cls cls_request with
    | None -> ()
    | Some m -> (
        match m.payload with
        | S_prepare { key; ballot } ->
            let inst = ensure t key in
            (match inst.decided with
            | Some value -> Rchannel.send t.ch m.src (S_learn { key; value })
            | None ->
                if ballot > inst.promised then begin
                  inst.promised <- ballot;
                  Rchannel.send t.ch m.src
                    (S_promise { key; ballot; accepted = inst.accepted })
                end
                else Rchannel.send t.ch m.src (S_nack { key; ballot }))
        | S_accept { key; ballot; value } ->
            let inst = ensure t key in
            (match inst.decided with
            | Some value -> Rchannel.send t.ch m.src (S_learn { key; value })
            | None ->
                if ballot >= inst.promised then begin
                  inst.promised <- ballot;
                  inst.accepted <- Some (ballot, value);
                  Rchannel.send t.ch m.src (S_accepted { key; ballot })
                end
                else Rchannel.send t.ch m.src (S_nack { key; ballot }))
        | S_learn { key; value } -> learn t (ensure t key) ~from:m.src value
        | _ -> ()));
    loop ()
  in
  loop ()

let start t = Rt.fork "synod-dispatcher" (dispatcher t)

(* ---------------- proposer ---------------- *)

(* Collect replies for one phase until a majority, a nack, the decision
   (which wakes the wait) or the attempt timeout; [matches] classifies a
   reply payload. *)
type 'a phase_result = Quorum of 'a list | Preempted | Timed_out

let collect_phase t inst ~matches =
  let deadline = Rt.now () +. t.attempt_timeout in
  let decided = waiters inst in
  (* [n_replies] rides along so reaching a quorum is O(1) per reply rather
     than re-counting the accumulated list each time *)
  let rec wait n_replies replies =
    if inst.decided <> None then Preempted
    else if n_replies >= t.majority then Quorum replies
    else
      let remaining = deadline -. Rt.now () in
      if remaining <= 0. then Timed_out
      else
        let filter m =
          match matches m.Types.payload with
          | `Reply _ | `Nack -> true
          | `Other -> false
        in
        match
          Rt.Wake.recv decided decided ~timeout:remaining cls_reply ~filter
        with
        | Some m -> (
            match matches m.Types.payload with
            | `Reply r -> wait (n_replies + 1) (r :: replies)
            | `Nack -> Preempted
            | `Other -> wait n_replies replies)
        | None -> wait n_replies replies
  in
  wait 0 []

let proposer t inst my_value () =
  let rec attempt ballot =
    match inst.decided with
    | Some _ -> ()
    | None ->
        let next () =
          (* jittered back-off keeps duelling proposers from lock-step *)
          Rt.sleep (t.backoff +. Rt.random_float t.backoff);
          attempt (ballot + t.n)
        in
        if ballot = 0 then
          (* lowest ballot: no acceptor can have accepted anything below
             it, so phase 1 is skipped — the primary's fast path *)
          phase2 ballot my_value next
        else begin
          List.iter
            (fun p ->
              Rchannel.send t.ch p (S_prepare { key = inst.key; ballot }))
            t.peers;
          let matches = function
            | S_promise { key; ballot = b; accepted }
              when key = inst.key && b = ballot ->
                `Reply accepted
            | S_nack { key; ballot = b } when key = inst.key && b = ballot ->
                `Nack
            | _ -> `Other
          in
          match collect_phase t inst ~matches with
          | Preempted -> if inst.decided = None then next ()
          | Timed_out -> next ()
          | Quorum promises ->
              (* adopt the value accepted at the highest ballot, if any *)
              let value =
                List.fold_left
                  (fun best promise ->
                    match (promise, best) with
                    | None, _ -> best
                    | Some (b, v), None -> Some (b, v)
                    | Some (b, v), Some (b', _) when b > b' -> Some (b, v)
                    | Some _, Some _ -> best)
                  None promises
                |> function
                | Some (_, v) -> v
                | None -> my_value
              in
              phase2 ballot value next
        end
  and phase2 ballot value next =
    List.iter
      (fun p ->
        Rchannel.send t.ch p (S_accept { key = inst.key; ballot; value }))
      t.peers;
    let matches = function
      | S_accepted { key; ballot = b } when key = inst.key && b = ballot ->
          `Reply ()
      | S_nack { key; ballot = b } when key = inst.key && b = ballot -> `Nack
      | _ -> `Other
    in
    match collect_phase t inst ~matches with
    | Quorum _ -> learn t inst ~from:t.self value
    | Preempted -> if inst.decided = None then next ()
    | Timed_out -> next ()
  in
  attempt t.index;
  inst.proposing <- false

let propose t ~key value =
  let inst = ensure t key in
  match inst.decided with
  | Some v -> v
  | None ->
      if not inst.proposing then begin
        inst.proposing <- true;
        Rt.fork ("synod:" ^ key) (proposer t inst value)
      end;
      Rt.Wake.until (waiters inst) (fun () -> inst.decided <> None);
      Option.get inst.decided

let peek t ~key =
  match Hashtbl.find_opt t.instances key with
  | None -> None
  | Some inst -> inst.decided

let decision_wake t ~key = waiters (ensure t key)

let decided_keys t =
  Hashtbl.fold
    (fun key inst acc -> if inst.decided <> None then key :: acc else acc)
    t.instances []
  |> List.sort String.compare

let on_decide t f = t.on_decide <- f
