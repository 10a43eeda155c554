type t = {
  mutable accel_compute : int;
  mutable weight_load : int;
  mutable dma_in : int;
  mutable dma_out : int;
  mutable host_overhead : int;
  mutable cpu_compute : int;
  mutable stall : int;
  mutable dma_bytes_in : int;
  mutable dma_bytes_out : int;
  mutable faults_detected : int;
  mutable faults_silent : int;
  mutable retries : int;
  mutable retry_cycles : int;
  mutable fault_stall : int;
  mutable wall : int;
}

let create () =
  {
    accel_compute = 0;
    weight_load = 0;
    dma_in = 0;
    dma_out = 0;
    host_overhead = 0;
    cpu_compute = 0;
    stall = 0;
    dma_bytes_in = 0;
    dma_bytes_out = 0;
    faults_detected = 0;
    faults_silent = 0;
    retries = 0;
    retry_cycles = 0;
    fault_stall = 0;
    wall = 0;
  }

let add acc x =
  acc.accel_compute <- acc.accel_compute + x.accel_compute;
  acc.weight_load <- acc.weight_load + x.weight_load;
  acc.dma_in <- acc.dma_in + x.dma_in;
  acc.dma_out <- acc.dma_out + x.dma_out;
  acc.host_overhead <- acc.host_overhead + x.host_overhead;
  acc.cpu_compute <- acc.cpu_compute + x.cpu_compute;
  acc.stall <- acc.stall + x.stall;
  acc.dma_bytes_in <- acc.dma_bytes_in + x.dma_bytes_in;
  acc.dma_bytes_out <- acc.dma_bytes_out + x.dma_bytes_out;
  acc.faults_detected <- acc.faults_detected + x.faults_detected;
  acc.faults_silent <- acc.faults_silent + x.faults_silent;
  acc.retries <- acc.retries + x.retries;
  acc.retry_cycles <- acc.retry_cycles + x.retry_cycles;
  acc.fault_stall <- acc.fault_stall + x.fault_stall;
  acc.wall <- acc.wall + x.wall

(* Canonical field enumeration for exporters (metrics, tables): keep in
   sync with the record — the order here is the exposition order. *)
let fields t =
  [
    ("accel_compute", t.accel_compute);
    ("weight_load", t.weight_load);
    ("dma_in", t.dma_in);
    ("dma_out", t.dma_out);
    ("host_overhead", t.host_overhead);
    ("cpu_compute", t.cpu_compute);
    ("stall", t.stall);
    ("dma_bytes_in", t.dma_bytes_in);
    ("dma_bytes_out", t.dma_bytes_out);
    ("faults_detected", t.faults_detected);
    ("faults_silent", t.faults_silent);
    ("retries", t.retries);
    ("retry_cycles", t.retry_cycles);
    ("fault_stall", t.fault_stall);
    ("wall", t.wall);
  ]

let peak t = t.accel_compute + t.weight_load

let utilization t =
  if t.wall <= 0 then 0.0
  else float_of_int (peak t + t.cpu_compute) /. float_of_int t.wall

let pp fmt t =
  Format.fprintf fmt
    "wall=%d (accel=%d wload=%d dma=%d+%d host=%d cpu=%d)" t.wall t.accel_compute
    t.weight_load t.dma_in t.dma_out t.host_overhead t.cpu_compute;
  if t.faults_detected > 0 || t.faults_silent > 0 || t.retries > 0 || t.fault_stall > 0
  then
    Format.fprintf fmt " faults(detected=%d silent=%d retries=%d retry_cycles=%d stall=%d)"
      t.faults_detected t.faults_silent t.retries t.retry_cycles t.fault_stall
