open Sb_packet
open Sb_flow

type t = {
  name : string;
  external_ip : Ipv4_addr.t;
  port_base : int;
  port_count : int;
  mutable next_port : int;
  mappings : int Tuple_map.t;  (* internal tuple -> external port *)
  mutable reverse : (Ipv4_addr.t * int) array;
      (* port - port_base -> internal (ip, port).  Ports are handed out in
         order, so the array grows with the ports in use instead of
         filling the whole pool when the NAT is created. *)
}

let unassigned = (Ipv4_addr.of_octets 0 0 0 0, 0)

let create ?(name = "mazunat") ~external_ip ?(port_base = 10000) ?(port_count = 40000) () =
  if port_base < 1 || port_base + port_count > 65536 then
    invalid_arg "Mazunat.create: port pool out of range";
  {
    name;
    external_ip;
    port_base;
    port_count;
    next_port = 0;
    mappings = Tuple_map.create 256;
    reverse = [||];
  }

let name t = t.name

let mapping t tuple =
  Option.map (fun port -> (t.external_ip, port)) (Tuple_map.find_opt t.mappings tuple)

let active_mappings t = Tuple_map.length t.mappings

let dump t =
  Tuple_map.fold
    (fun tuple port acc ->
      Format.asprintf "%a => %a:%d" Five_tuple.pp tuple Ipv4_addr.pp t.external_ip port :: acc)
    t.mappings []
  |> List.sort String.compare
  |> String.concat "\n"

let allocate t tuple =
  let slot = t.next_port mod t.port_count in
  let port = t.port_base + slot in
  t.next_port <- t.next_port + 1;
  Tuple_map.replace t.mappings tuple port;
  if slot >= Array.length t.reverse then begin
    let grown = Array.make (min t.port_count (max 256 (2 * slot))) unassigned in
    Array.blit t.reverse 0 grown 0 (Array.length t.reverse);
    t.reverse <- grown
  end;
  t.reverse.(slot) <- (tuple.Five_tuple.src_ip, tuple.Five_tuple.src_port);
  port

let reverse_lookup t port =
  let slot = port - t.port_base in
  if slot < 0 || slot >= Array.length t.reverse then None
  else
    let internal_ip, internal_port = t.reverse.(slot) in
    if internal_port = 0 then None else Some (internal_ip, internal_port)

let apply_modify action packet =
  match Sb_mat.Header_action.apply action packet with
  | Sb_mat.Header_action.Forwarded -> ()
  | Sb_mat.Header_action.Dropped -> assert false (* modify never drops *)

(* Outbound: source-translate (allocating on first sight). *)
let process_outbound t ctx packet tuple =
  let port, alloc_cycles =
    match Tuple_map.find_opt t.mappings tuple with
    | Some port -> (port, Sb_sim.Cycles.nat_translate)
    | None -> (allocate t tuple, Sb_sim.Cycles.nat_allocate)
  in
  let action =
    Sb_mat.Header_action.Modify
      [ (Field.Src_ip, Field.Ip t.external_ip); (Field.Src_port, Field.Port port) ]
  in
  let apply_cost = Sb_mat.Header_action.cost action in
  apply_modify action packet;
  Speedybox.Api.localmat_add_ha ctx action;
  Speedybox.Nf.forwarded (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + alloc_cycles + apply_cost)

(* Return traffic: destination-translate through the mapping, or drop when
   none exists. *)
let process_inbound t ctx packet tuple =
  let base = Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + Sb_sim.Cycles.nat_translate in
  match reverse_lookup t tuple.Five_tuple.dst_port with
  | None ->
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
      Speedybox.Nf.dropped (base + Sb_sim.Cycles.ha_drop)
  | Some (internal_ip, internal_port) ->
      let action =
        Sb_mat.Header_action.Modify
          [ (Field.Dst_ip, Field.Ip internal_ip); (Field.Dst_port, Field.Port internal_port) ]
      in
      let apply_cost = Sb_mat.Header_action.cost action in
      apply_modify action packet;
      Speedybox.Api.localmat_add_ha ctx action;
      Speedybox.Nf.forwarded (base + apply_cost)

let process t ctx packet =
  let tuple = Five_tuple.of_packet packet in
  if Ipv4_addr.equal tuple.Five_tuple.dst_ip t.external_ip then
    process_inbound t ctx packet tuple
  else process_outbound t ctx packet tuple

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () -> dump t)
    (fun ctx packet -> process t ctx packet)
