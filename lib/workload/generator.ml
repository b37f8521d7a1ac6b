type kind =
  | Bank_updates of { accounts : int; max_delta : int }
  | Bank_transfers of { accounts : int; max_amount : int }
  | Travel_bookings of { destinations : string list; max_party : int }
  | Read_heavy of { accounts : int; max_delta : int; reads_per_write : int }
  | Travel_lookups of { destinations : string list }

let bodies ~seed ~n kind =
  let rng = Runtime.Rng.create ~seed in
  let body i =
    match kind with
    | Bank_updates { accounts; max_delta } ->
        Printf.sprintf "acct%d:%d"
          (Runtime.Rng.int rng accounts)
          (1 + Runtime.Rng.int rng max_delta)
    | Bank_transfers { accounts; max_amount } ->
        let from_acct = Runtime.Rng.int rng accounts in
        let to_acct = (from_acct + 1 + Runtime.Rng.int rng (max 1 (accounts - 1))) mod accounts in
        Printf.sprintf "acct%d:acct%d:%d" from_acct to_acct
          (1 + Runtime.Rng.int rng max_amount)
    | Travel_bookings { destinations; max_party } ->
        let dest =
          List.nth destinations (Runtime.Rng.int rng (List.length destinations))
        in
        Printf.sprintf "%s:%d" dest (1 + Runtime.Rng.int rng max_party)
    | Read_heavy { accounts; max_delta; reads_per_write } ->
        (* deterministic interleave, not coin flips: every
           (reads_per_write + 1)-th request is a write, so the mix ratio
           is exact for any [n] — audits are bare account bodies, updates
           the usual "acct:delta" (the [Bank.mixed] dispatch). *)
        let cycle = max 1 (reads_per_write + 1) in
        if reads_per_write > 0 && i mod cycle <> cycle - 1 then
          Printf.sprintf "acct%d" (Runtime.Rng.int rng accounts)
        else
          Printf.sprintf "acct%d:%d"
            (Runtime.Rng.int rng accounts)
            (1 + Runtime.Rng.int rng max_delta)
    | Travel_lookups { destinations } ->
        List.nth destinations (Runtime.Rng.int rng (List.length destinations))
  in
  List.init n body

(* Keyed bodies for a sharded cluster: each comes with the shard its
   routing key maps to. Single-key kinds just tag [bodies]' output; bank
   transfers are intra-shard by default — the destination account is drawn
   from the source account's shard — with [cross_ratio] of them instead
   drawing the destination from a foreign shard (a cross-shard transfer for
   clusters built with [~cross:true]). The interleave is deterministic, not
   coin flips: request [i] is cross iff [floor ((i+1) * r) > floor (i * r)],
   so the ratio is exact for any [n] and [cross_ratio = 0.] leaves both the
   bodies and the rng draw sequence byte-identical to earlier revisions. A
   shard holding a single account degenerates to a self-transfer rather
   than escaping the shard, and a single-shard map degenerates cross draws
   back to intra-shard ones. Read-heavy bodies are single-key (one account
   per audit or update), so reads stay intra-shard for free. *)
let sharded_bodies ~map ?(cross_ratio = 0.) ~seed ~n kind =
  match kind with
  | Bank_updates _ | Travel_bookings _ | Read_heavy _ | Travel_lookups _ ->
      List.map
        (fun body -> (Etx.Shard_map.shard_of_body map body, body))
        (bodies ~seed ~n kind)
  | Bank_transfers { accounts; max_amount } ->
      let shard =
        Array.init accounts (fun a ->
            Etx.Shard_map.shard_of map (Printf.sprintf "acct%d" a))
      in
      (* each shard's own and foreign accounts, ascending, and each
         account's index among its shard's own *)
      let shards = 1 + Array.fold_left max 0 shard in
      let where p = Array.of_seq (Seq.filter p (Seq.init accounts Fun.id)) in
      let own = Array.init shards (fun s -> where (fun a -> shard.(a) = s)) in
      let foreign = Array.init shards (fun s -> where (fun a -> shard.(a) <> s)) in
      let pos = Array.make accounts 0 in
      Array.iter (Array.iteri (fun i a -> pos.(a) <- i)) own;
      let rng = Runtime.Rng.create ~seed in
      let draw xs = xs.(Runtime.Rng.int rng (Array.length xs)) in
      List.init n (fun i ->
          let cross =
            cross_ratio > 0.
            && int_of_float (float_of_int (i + 1) *. cross_ratio)
               > int_of_float (float_of_int i *. cross_ratio)
          in
          let from_acct = Runtime.Rng.int rng accounts in
          let s = shard.(from_acct) in
          let to_acct =
            if cross && foreign.(s) <> [||] then draw foreign.(s)
            else
              (* the shard's other accounts; a single-shard map has nowhere
                 to cross, a lone account transfers to itself *)
              let mates = Array.length own.(s) - 1 in
              if mates = 0 then from_acct
              else
                let r = Runtime.Rng.int rng mates in
                own.(s).(if r < pos.(from_acct) then r else r + 1)
          in
          ( s,
            Printf.sprintf "acct%d:acct%d:%d" from_acct to_acct
              (1 + Runtime.Rng.int rng max_amount) ))

let business_of = function
  | Bank_updates _ -> Bank.update
  | Bank_transfers _ -> Bank.transfer
  | Travel_bookings _ -> Travel.book
  | Read_heavy _ -> Bank.mixed
  | Travel_lookups _ -> Travel.availability

let seed_data_of = function
  | Bank_updates { accounts; _ }
  | Bank_transfers { accounts; _ }
  | Read_heavy { accounts; _ } ->
      Bank.seed_accounts
        (List.init accounts (fun i -> (Printf.sprintf "acct%d" i, 10_000)))
  | Travel_bookings { destinations; _ } | Travel_lookups { destinations } ->
      Travel.seed_inventory ~destinations ~seats:10_000 ~rooms:10_000
        ~cars:10_000
