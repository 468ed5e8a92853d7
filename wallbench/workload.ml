(* The benchmark's named workloads, and why each is in the set. *)

type t = {
  name : string;
  why : string;
  spec : string;  (** chain spec, resolved by [Chain_registry] *)
  traffic : Gen.spec;
  idle_expiry : bool;
  warm : int;  (** packets processed, untimed, before the timed phase *)
}

let lognormal_mean8 rng =
  (* Benson-style heavy tail: lognormal body (mean about 8.9 data
     packets), tail clamped at 500. *)
  Sb_trace.Dist.clamp_int ~min:1 ~max:500
    (Sb_trace.Dist.lognormal rng ~mu:(log 8. -. 0.5) ~sigma:1.1)

let dcn ~concurrency ~token_fraction =
  {
    Gen.concurrency;
    data_packets = lognormal_mean8;
    payload = (16, 1400);
    udp_fraction = 0.10;
    rst_fraction = 0.06;
    abandon_fraction = 0.04;
    token_fraction;
  }

let all =
  [
    {
      name = "fastpath-64B";
      why =
        "64 B frames over ~1k long TCP flows, mazunat+monitor: >99% fast path, per-packet classifier and Global-MAT cost dominates";
      spec = "mazunat,monitor";
      traffic =
        {
          Gen.concurrency = 1024;
          data_packets = (fun rng -> Sb_trace.Rng.int_in rng 1000 3000);
          payload = (10, 10) (* 64-byte TCP frames *);
          udp_fraction = 0.;
          rst_fraction = 0.;
          abandon_fraction = 0.;
          token_fraction = 0.;
        };
      idle_expiry = false;
      warm = 65_536;
    };
    {
      name = "churn-chain1";
      why =
        "paper Chain 1 over 100k live heavy-tailed flows arriving over time with idle expiry: conntrack inserts, recording, MAT churn";
      spec = "mazunat,maglev,monitor,ipfilter";
      traffic = dcn ~concurrency:100_000 ~token_fraction:0.;
      idle_expiry = true;
      warm = 300_000;
    };
    {
      name = "ids-chain2";
      why =
        "paper Chain 2 (ipfilter denying port 443, snort, monitor), 16-1400 B payloads, 5% token flows: NF payload inspection dominates";
      spec = "ipfilter:443,snort,monitor";
      traffic = dcn ~concurrency:2048 ~token_fraction:0.05;
      idle_expiry = true;
      warm = 32_768;
    };
  ]

(* A live flow waits under two rounds (2 * concurrency packets) between
   packets; three rounds of arrival clock is idle only for a flow that
   has stopped sending. *)
let idle_timeout_packets w = if w.idle_expiry then Some (3 * w.traffic.Gen.concurrency) else None

let idle_timeout_cycles w = Option.map (fun p -> p * Gen.gap_cycles) (idle_timeout_packets w)

(* A NAT hands out ports in arrival order, so one packet that takes
   another flow's rule shifts the port, and the balancer's hash of the
   translated tuple, of every flow after it (see [Replay.check]). *)
let has_nat w = List.mem "mazunat" (String.split_on_char ',' w.spec)

let find name = List.find_opt (fun w -> w.name = name) all
