type level = { level_name : string; size_bytes : int }

type dma = {
  setup_cycles : int;
  per_chunk_cycles : int;
  bytes_per_cycle : int;
}

let transfer_cycles dma ~chunks ~bytes =
  if bytes = 0 then 0
  else
    dma.setup_cycles + (chunks * dma.per_chunk_cycles)
    + Util.Ints.ceil_div bytes dma.bytes_per_cycle
