(* The workloads: what each one sets up, and how one job is sent through
   its front door. *)

type kind = Cold | Rebatch | Warm | Proxy

let kinds = [ ("cold", Cold); ("rebatch", Rebatch); ("warm", Warm); ("proxy", Proxy) ]

let cache_capacity = 256 (* cedard's default; the memo keeps its 1024 *)
let warmup_jobs = 64 (* cold: untimed pass on a throwaway server *)
let resident = 128 (* warm/proxy: distinct requests kept in the cache *)

(* cold/rebatch: the balanced head of the job sequence, drawn at set-up;
   every run completes it whatever its speed, and speedup_geomean and
   the interpreter oracle are taken over it *)
let quality = 256
let shards = 2 (* proxy: in-process shards, one worker each *)

let spec kind seed : Gen.spec =
  match kind with
  | Cold -> { seed; jitter = 32; batch = 4; validate = false; target = Codegen.Target.Cedar }
  | Rebatch -> { seed; jitter = 0; batch = 4; validate = true; target = Codegen.Target.Openmp }
  | Warm | Proxy -> { seed; jitter = 4; batch = 4; validate = false; target = Codegen.Target.Cedar }

type t = {
  kind : kind;
  clients : int;
  services : Service.Server.t list;  (** shard order; the first answers in-process jobs *)
  nets : Net.Server.t list;
  proxy : Cluster.Proxy.t option;
  conns : Net.Client.t array;  (** one per client, to the front door (warm, proxy) *)
  resident_req : Service.Server.request array;  (** warm, proxy: the cached set *)
  resident_pay : Service.Server.payload option array;
      (** its in-process replies; [None] where the fill failed *)
  prefix : Service.Server.request array;  (** cold, rebatch: the first [quality] jobs *)
  stream : Gen.stream;  (** cold, rebatch: where the job sequence goes on *)
  setup_failed : int;
}

let full = function
  | Service.Server.Done { payload; _ } when payload.Service.Server.p_rung = Service.Server.Full ->
      Some payload
  | _ -> None

(* every request once through [svc], closed loop; failures count *)
let run_all ~clients svc reqs =
  let out = Array.make (Array.length reqs) None in
  let r =
    Load.run ~clients
      ~next:(Load.counted (Array.length reqs) Fun.id)
      ~call:(fun _ i ->
        out.(i) <- full (Service.Server.run svc reqs.(i));
        out.(i) <> None)
  in
  (r.Load.failed, out)

let service ~workers () = Service.Server.create ~workers ~cache_capacity ()

let connect port =
  match Net.Client.connect (Net.Client.default_cfg ~port) with
  | Ok c -> c
  | Error m -> failwith ("connect: " ^ m)

let member i net =
  { Cluster.Membership.sh_id = Printf.sprintf "s%d" i; sh_host = "127.0.0.1";
    sh_port = Net.Server.port net }

let setup kind ~seed ~clients =
  let spec = spec kind seed in
  let stream = Gen.stream spec in
  let in_process services setup_failed =
    { kind; clients; services; nets = []; proxy = None; conns = [||]; resident_req = [||];
      resident_pay = [||]; prefix = Array.init quality (fun _ -> Gen.draw_balanced stream);
      stream; setup_failed }
  in
  match kind with
  | Cold ->
      let throwaway = service ~workers:clients () in
      let failed, _ =
        run_all ~clients throwaway (Gen.balanced { spec with seed = seed + 7919 } warmup_jobs)
      in
      ignore (Service.Server.shutdown throwaway);
      in_process [ service ~workers:clients () ] failed
  | Rebatch ->
      let svc = service ~workers:clients () in
      let failed, _ = run_all ~clients svc (Gen.prewarm_set spec) in
      in_process [ svc ] failed
  | Warm ->
      let svc = service ~workers:clients () in
      let reqs = Gen.balanced spec resident in
      let failed, pay = run_all ~clients svc reqs in
      let net = Net.Server.create Net.Server.default_cfg svc in
      { kind; clients; services = [ svc ]; nets = [ net ]; proxy = None;
        conns = Array.init clients (fun _ -> connect (Net.Server.port net));
        resident_req = reqs; resident_pay = pay; prefix = [||]; stream; setup_failed = failed }
  | Proxy ->
      let reqs = Gen.balanced spec resident in
      let svcs = List.init shards (fun _ -> service ~workers:1 ()) in
      (* every shard holds the whole set, so whichever shard the ring
         picks answers from its cache; shards fill in parallel *)
      let fills =
        List.map
          (fun svc ->
            let r = ref (0, [||]) in
            (r, Thread.create (fun () -> r := run_all ~clients:1 svc reqs) ()))
          svcs
      in
      List.iter (fun (_, th) -> Thread.join th) fills;
      let results = List.map (fun (r, _) -> !r) fills in
      let _, pay = List.hd results in
      let text = Option.map (fun p -> p.Service.Server.p_text) in
      let failed =
        List.fold_left
          (fun acc (f, p) ->
            (* a shard whose text differs from the first shard's counts *)
            let differs = ref 0 in
            Array.iteri (fun i q -> if text q <> text pay.(i) then incr differs) p;
            acc + f + !differs)
          0 results
      in
      let nets = List.map (Net.Server.create Net.Server.default_cfg) svcs in
      let proxy = Cluster.Proxy.create (List.mapi member nets) in
      { kind; clients; services = svcs; nets; proxy = Some proxy;
        conns = Array.init clients (fun _ -> connect (Cluster.Proxy.port proxy));
        resident_req = reqs; resident_pay = pay; prefix = [||]; stream; setup_failed = failed }

let teardown t =
  Array.iter Net.Client.close t.conns;
  Option.iter Cluster.Proxy.drain t.proxy;
  List.iter Net.Server.drain t.nets;
  List.iter (fun s -> ignore (Service.Server.shutdown s)) t.services

(* The job source of the run, [(slot, request)] per call: cold and
   rebatch go through the prefix and then draw fresh distinct requests
   (the slot is the sequence index); warm and proxy pick seeded members
   of the resident set (the slot is the member's index).  A stack has
   one job sequence: take one source per stack. *)
let source t ~seed =
  let n = ref 0 in
  fun () ->
    let i = !n in
    incr n;
    match t.kind with
    | Cold | Rebatch -> (i, if i < Array.length t.prefix then t.prefix.(i) else Gen.draw t.stream)
    | Warm | Proxy ->
        let j = Gen.pick ~seed ~n:(Array.length t.resident_req) i in
        (j, t.resident_req.(j))

(* Send one job through the front door from client [c]: true iff it
   came back Done at the Full rung and, over the wire, byte-identical
   to the in-process reply.  [keep] sees in-process payloads. *)
let send ?(keep = fun _ _ -> ()) t c (slot, (req : Service.Server.request)) =
  match t.kind with
  | Cold | Rebatch -> (
      match full (Service.Server.run (List.hd t.services) req) with
      | Some p ->
          keep slot p;
          true
      | None -> false)
  | Warm | Proxy -> (
      match
        Net.Client.submit t.conns.(c) ~name:req.Service.Server.req_name
          ~options:req.Service.Server.req_options req.Service.Server.req_source
      with
      | Ok (Net.Wire.R_done { r_rung = Service.Server.Full; r_text; _ }) -> (
          match t.resident_pay.(slot) with
          | Some p -> String.equal p.Service.Server.p_text r_text
          | None -> false)
      | _ -> false)
