module L = Ir.Layer
module S = Dory.Schedule
module Tile = Arch.Tile
module P = Program
module Dtype = Tensor.Dtype
module K = Nn.Kernels

(* A compiled execution plan resolves, once per artifact, everything the
   per-request slow path ([Exec_accel.run]) recomputes per request: tile
   instance dims, L1 slot layouts, DMA window geometry as flat blit lists,
   the L2 extents of each tile's weight and bias slices, padded-input
   shapes, the per-step counters and the trace timeline. The per-request
   loop is then pure data movement and kernel math over preallocated
   scratch arenas. Like the oracle, and like the DORY kernels reading the
   preloaded images in the paper's deployment, a tile reads its weights
   and bias from the L2 it runs on, at the oracle's point in the tile:
   one bounds check per slice (the oracle's [Mem.Fault]), then [Mem]'s
   decoder per conv filter row ([Mem.read_flat_into]), per dense row
   ([Mem.dot]) or per bias channel ([Mem.read_elt]).

   The weight images are loaded the way the paper's deployment loads its
   accelerator constants: once, before the first inference. [build] only
   takes their extent in L2 and reads no weight value, so compiling,
   reporting or a warm store hit never encodes them; the plan's first
   [checkout], in whichever domain comes first, encodes them once with
   [Mem.encode_image], and every checkout restores L2 from those bytes.

   Byte-identity contract (enforced by the golden snapshots and the
   plan-on/plan-off differential tests, fault-free and faulted): for a
   run of a well-formed program, the fast path produces exactly the slow
   path's output bytes, cycle counters, trace events and memory high-water
   marks, and under a fault session the same session draws, silent flips
   and [Unrecovered] raises. The proof obligations live next to each piece
   below; the load-bearing one is that OCaml [int] addition is associative
   and commutative (modulo 2^63). So the conv kernel may sum a tile's
   terms in any loop order (weight-stationary here, output-stationary in
   [Nn.Kernels.conv2d]) and still produce the oracle's bits; a zero tap
   adds nothing, so skipping a tap, or a triple of taps, that is all zero
   changes no sum, and a zero tap swept inside a live triple adds 0; and
   a pre-zero-padded input contributes exactly 0 at the out-of-range taps
   the slow path's bounds checks skip. Reading weights live is what makes
   L2 bit rot and a program's own DMA-out over a later step's weight
   image follow the oracle byte for byte: both paths decode the same
   bytes.

   Lanes. The conv kernel accumulates up to n output channels of one conv
   group side by side in one [int], L bits per lane, so one multiply-add
   serves n channels. The rule that keeps this exact:
   - B = taps * max|x| * max|w|, taps = cg * fy * fx, each max taken over
     the whole dtype range (I8 128, U7 127, Ternary 1, I16 2^15, I32 2^31).
     Every decode lands in that range, rotted L2 and L1 bytes included:
     [Mem]'s ternary fold stays in {-1,0,1}.
   - L is the least width with 2^(L-1) > B, and
     n = max 1 (min kpg (Sys.int_size / L)); n = 1 when B would
     overflow.
   - A packed tap, sum of w_l * 2^(l*L), is 0 iff every w_l is 0, since
     |w_l| < 2^(L-1), so skipping it skips exactly the all-zero taps.
   - The kernel adds three horizontally adjacent taps of a kernel row in
     one pass, w0 * x[s] + w1 * x[s+1] + w2 * x[s+2], before the sum
     reaches the accumulator. Every term of a lane is bounded by
     max|x| * max|w|, so any sum of a subset of a lane's terms, such a
     triple or any partial sum in the accumulator, has magnitude at most
     B < 2^(L-1). With n * L <= Sys.int_size the packed int never wraps;
     sign-extending its low L bits and shifting the rest right recovers
     each channel's exact sum, the oracle's bits.
   - Lane groups never straddle conv groups. Lane group j's packed row
     lives in accumulator row j, and its first channel is at least j, so
     unpacking the groups in descending order never overwrites a packed
     row not yet read: the accumulator needs no extra words.
   Depthwise layers have one channel per group, hence one lane, and one
   lane runs the plain loop: the packed tap is the weight itself and
   nothing is unpacked. *)

(* --- Plan data types ---------------------------------------------------- *)

(* A tile's weight slice in L2: [ws_bytes] bytes at [ws_off]. *)
type wslice = { ws_dtype : Dtype.t; ws_off : int; ws_bytes : int }

type epilogue = {
  ep_k : int;  (* output channels of the tile *)
  ep_spatial : int;  (* pre-pool spatial extent (oh * ow) *)
  ep_bias : int option;  (* L2 offset of the tile's I32 bias slice (ep_k elements) *)
  ep_shift : int option;
  ep_relu : bool;
  ep_out_dtype : Dtype.t;
  (* pwy, pwx, psy, psx, oh_pre, ow_pre of a fused max pool *)
  ep_pool : (int * int * int * int * int * int) option;
  ep_oy : int;  (* final (post-pool) output dims *)
  ep_ox : int;
}

type compute =
  | CConv of {
      cv_chans : int;  (* input channels of the slice *)
      cv_h : int;  (* padded input height *)
      cv_w : int;  (* padded input width *)
      cv_rows : int;  (* valid (DMA-ed) interior rows *)
      cv_cols : int;
      cv_pt : int;  (* interior origin inside the padded block *)
      cv_pl : int;
      cv_k : int;
      cv_cg : int;  (* weight channel dim (c / groups) *)
      cv_fy : int;
      cv_fx : int;
      cv_sy : int;
      cv_sx : int;
      cv_groups : int;
      cv_oh : int;  (* pre-pool conv output dims on the padded input *)
      cv_ow : int;
      cv_ws : wslice;  (* the k0 slice: cv_k filters of cg * fy * fx taps *)
      cv_lanes : int;  (* channels per packed accumulator (see the header) *)
      cv_lane_bits : int;
      cv_in_dtype : Dtype.t;
      cv_ep : epilogue;
    }
  | CDense of {
      dn_c : int;
      dn_k : int;
      dn_ws : wslice;  (* the k0 slice: dn_k rows *)
      dn_in_dtype : Dtype.t;
      dn_ep : epilogue;
    }
  | CAdd of { ad_n : int; ad_in_dtype : Dtype.t; ad_ep : epilogue }
  | CPool of {
      (* Generic fallback: a prebuilt sliced layer executed through the
         reference [Ir.Layer.execute], with only the input decode and
         output encode on the fast bulk path. *)
      pl_layer : L.t;
      pl_chans : int;
      pl_rows : int;
      pl_cols : int;
      pl_h : int;  (* padded dims (pads are zero for valid pooling) *)
      pl_w : int;
      pl_pt : int;
      pl_pl : int;
      pl_in_dtype : Dtype.t;
    }

type scratch_spec = {
  ss_pin : int;
  ss_acc : int;
  ss_out : int;
  ss_tensor : (Dtype.t * int array) option;
}

type inst = {
  i_in_blits : int array;  (* packed (src_off, dst_off, len) triples, L2 -> L1 *)
  i_out_blits : int array;  (* packed triples, L1 -> L2 *)
  i_in_off : int;  (* L1 offset of the dense input block *)
  i_out_off : int;  (* L1 offset of the output block *)
  i_out_dtype : Dtype.t;
  i_out_len : int;  (* elements encoded into the L1 output block *)
  i_compute : compute;
  i_scr : scratch_spec;
  (* Per-tile modeled costs: the [cycles] of each [Resilience.guard], in
     the slow path's order. They matter only under a fault session. *)
  i_din : int;
  i_wl : int;
  i_wload : bool;  (* weight-load guard fires (load_weights && weights) *)
  i_cc : int;
  i_dout : int;
  i_out_bytes : int;  (* L1 out-slot extent a silent compute flip may hit *)
}

type tevent = {
  tv_track : string;
  tv_ts : int;  (* relative to the step's t0 *)
  tv_dur : int;
  tv_args : (string * Trace.Json.t) list;
  tv_name : string;
}

type astep = {
  a_insts : inst array;
  a_engine : Fault.Plan.site;  (* [Compute (Some accel)], the compute guard site *)
  a_counters : Counters.t;  (* fault-free template, copied per request *)
  a_tpl : tevent array;  (* trace timeline, replayed per request *)
  a_fail : exn option;  (* deferred slow-path raise for malformed steps *)
}

type scratch = {
  sc_pin : int array;
  sc_acc : int array;
  sc_out : int array;
  sc_tensor : Tensor.t option;
}

type arena = {
  ar_l2 : Mem.t;
  ar_l1 : Mem.t;
  ar_scratch : scratch array array;
  ar_wrows : int array;  (* the conv kernel's decoded filter rows *)
}

type t = {
  p_prog : P.t;
  p_steps : astep option array;  (* aligned with [prog.steps]; None = Cpu *)
  p_image_bytes : int;  (* extent of the weight images in L2 *)
  p_image : Bytes.t option Atomic.t;  (* their bytes, from the first checkout *)
  p_l1_size : int;
  p_l2_size : int;
  p_id : int;  (* unique per plan: its hash in the arena tables *)
  p_tiles : int;
  p_scratch_words : int;
  p_wrows : int;  (* max lanes * taps over the conv tiles *)
  p_service_cycles : int;  (* wall of every fault-free run *)
}

type stats = {
  accel_steps : int;
  tiles : int;
  scratch_words : int;
  image_bytes : int;
}

let program t = t.p_prog
let service_cycles t = t.p_service_cycles

let stats t =
  {
    accel_steps =
      Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.p_steps;
    tiles = t.p_tiles;
    scratch_words = t.p_scratch_words;
    image_bytes = t.p_image_bytes;
  }

(* --- Build-time geometry ------------------------------------------------- *)

(* Blit triples (src_off, dst_off, len), built straight into a growable
   int buffer. A blit that continues the previous one in both source and
   destination extends it instead (two windows that abut in L2 and L1
   collapse to a single copy): the copied bytes and the destination
   high-water mark are unchanged, only the call count drops. *)
type blits = { mutable bl : int array; mutable bn : int }

let push_blit b ~src ~dst ~len =
  let n = b.bn in
  if n > 0 && b.bl.(n - 3) + b.bl.(n - 1) = src && b.bl.(n - 2) + b.bl.(n - 1) = dst
  then b.bl.(n - 1) <- b.bl.(n - 1) + len
  else begin
    if n + 3 > Array.length b.bl then begin
      let bigger = Array.make ((2 * Array.length b.bl) + 3) 0 in
      Array.blit b.bl 0 bigger 0 n;
      b.bl <- bigger
    end;
    b.bl.(n) <- src;
    b.bl.(n + 1) <- dst;
    b.bl.(n + 2) <- len;
    b.bn <- n + 3
  end

(* The buffered triples as a fresh array; empties the buffer for reuse. *)
let take_blits b =
  let a = Array.sub b.bl 0 b.bn in
  b.bn <- 0;
  a

(* The runs of [Exec_accel.window_walk] as blits, pushed in its order;
   returns its (chunks, bytes). *)
let window_blits ~to_l1 ~elt_bytes ~l2_off ~l1_off ~full_h ~full_w ~ch0 ~y0 ~x0
    ~chans ~rows ~cols b =
  Exec_accel.window_walk ~elt_bytes ~l2_off ~l1_off ~full_h ~full_w ~ch0 ~y0 ~x0
    ~chans ~rows ~cols (fun l2_pos l1_pos len ->
      if to_l1 then push_blit b ~src:l2_pos ~dst:l1_pos ~len
      else push_blit b ~src:l1_pos ~dst:l2_pos ~len)

let replay_blits ~src ~dst blits =
  let n = Array.length blits / 3 in
  for i = 0 to n - 1 do
    Mem.blit ~src ~src_off:blits.(3 * i) ~dst ~dst_off:blits.((3 * i) + 1)
      ~len:blits.((3 * i) + 2)
  done

(* --- Fast kernels -------------------------------------------------------- *)

(* Decode the dense L1 input block into the interior of a zero-padded flat
   array. The border elements are zero at arena allocation and are never
   written, so they stay zero across reuses — equivalent to the slow
   path's fresh zero tensor per tile. *)
let fill_padded ~l1 ~dtype ~l1_off ~dst ~chans ~rows ~cols ~ph ~pw ~pt ~pl =
  if rows = ph && cols = pw then
    Mem.read_flat_into l1 dtype l1_off dst ~pos:0 ~len:(chans * rows * cols)
  else begin
    let elt = Dtype.sim_bytes dtype in
    for ch = 0 to chans - 1 do
      let ch_pos = (((ch * ph) + pt) * pw) + pl in
      for r = 0 to rows - 1 do
        Mem.read_flat_into l1 dtype
          (l1_off + (((ch * rows) + r) * cols * elt))
          dst
          ~pos:(ch_pos + (r * pw))
          ~len:cols
      done
    done
  end

(* Each kernel checks the slices it reads as it starts, weights before
   bias: the slow path's order and [Mem.Fault] message, after which no
   element read can fault. Nothing between the checks touches memory, so
   a fault leaves the state the slow path leaves. *)

(* The lanes of a conv tile and their width, by the header's rule. Two
   lanes need 2L <= Sys.int_size, so a bound past [cap] means one lane;
   checking against [cap] first keeps B itself from overflowing. *)
let conv_lanes ~in_dtype ~w_dtype ~taps ~kpg =
  let mag dt = max (-Dtype.min_value dt) (Dtype.max_value dt) in
  let mx = mag in_dtype and mw = mag w_dtype in
  let cap = 1 lsl ((Sys.int_size / 2) - 1) in
  if taps < 1 || mx > cap / mw || mx * mw > cap / taps then (1, Sys.int_size)
  else
    let b = taps * mx * mw in
    let rec width l = if 1 lsl (l - 1) > b then l else width (l + 1) in
    let l = width 1 in
    (max 1 (min kpg (Sys.int_size / l)), l)

(* [acc.(o) += w * pin.(s)], and the same for three horizontally
   adjacent taps of one kernel row, summed before they reach the
   accumulator, so it is read and written once per three taps. *)
let[@inline] add1 acc pin w o s =
  Array.unsafe_set acc o (Array.unsafe_get acc o + (w * Array.unsafe_get pin s))

let[@inline] add3 acc pin w0 w1 w2 o s =
  Array.unsafe_set acc o
    (Array.unsafe_get acc o
    + ((w0 * Array.unsafe_get pin s)
      + (w1 * Array.unsafe_get pin (s + 1))
      + (w2 * Array.unsafe_get pin (s + 2))))

(* The conv kernel's two sweeps over one run of [len] output columns
   from [dst], reading the input from [src], [sx] columns apart. Both are
   closure-free and unrolled by two, stepping their indices instead of
   multiplying them: [acc] and [pin] stay in registers, and the loop's
   safepoint poll runs once per two columns. *)
let sweep1 acc pin w ~dst ~src ~len ~sx =
  let last = dst + len - 1 in
  let o = ref dst and s = ref src in
  while !o < last do
    let o0 = !o and s0 = !s in
    let s1 = s0 + sx in
    add1 acc pin w o0 s0;
    add1 acc pin w (o0 + 1) s1;
    o := o0 + 2;
    s := s1 + sx
  done;
  if !o = last then add1 acc pin w last !s

let sweep3 acc pin w0 w1 w2 ~dst ~src ~len ~sx =
  let last = dst + len - 1 in
  let o = ref dst and s = ref src in
  while !o < last do
    let o0 = !o and s0 = !s in
    let s1 = s0 + sx in
    add3 acc pin w0 w1 w2 o0 s0;
    add3 acc pin w0 w1 w2 (o0 + 1) s1;
    o := o0 + 2;
    s := s1 + sx
  done;
  if !o = last then add3 acc pin w0 w1 w2 last !s

(* Weight-stationary: a lane group's filter rows are decoded from L2 into
   [wrows] once per tile, each tap packed from its channels' weights
   [lane_bits] apart, and every tap, or triple of horizontally adjacent
   taps, that is not all zero is swept across the output plane in runs of
   contiguous output columns. One multiply-add thus serves the whole lane
   group, and the innermost loop no longer spans the kernel columns. The
   terms are [Nn.Kernels.conv2d]'s, summed in a different order. *)
let conv_kernel ~l2 ~ws ~cv_w ~cv_k ~cv_cg ~cv_fy ~cv_fx ~cv_sy ~cv_sx ~cv_groups
    ~cv_oh ~cv_ow ~lanes ~lane_bits ~chw pin acc wrows =
  Mem.check l2 ws.ws_off ws.ws_bytes;
  let kpg = cv_k / cv_groups in
  let plane = cv_oh * cv_ow in
  let taps = cv_cg * cv_fy * cv_fx in
  let row_bytes = taps * Dtype.sim_bytes ws.ws_dtype in
  let triples = cv_fx / 3 in
  (* A one-column kernel at unit stride reads input rows exactly as wide
     as the output's, so the whole plane is one run; otherwise each
     output row is. *)
  let runs, run_len =
    if cv_sy = 1 && cv_sx = 1 && cv_w = cv_ow then (1, plane) else (cv_oh, cv_ow)
  in
  Array.fill acc 0 (cv_k * plane) 0;
  (* Lane group [j] packs channels [k0, k0 + m) of conv group [grp] into
     accumulator row [j]. *)
  let j = ref 0 and k0 = ref 0 in
  while !k0 < cv_k do
    let grp = !k0 / kpg in
    let m = min lanes (min cv_k ((grp + 1) * kpg) - !k0) in
    for l = 0 to m - 1 do
      Mem.read_flat_into l2 ws.ws_dtype
        (ws.ws_off + ((!k0 + l) * row_bytes))
        wrows ~pos:(l * taps) ~len:taps
    done;
    (* Packed into row 0 in place: tap [t] reads column [t] of every row
       before it overwrites row 0's. *)
    if m > 1 then
      for t = 0 to taps - 1 do
        let w = ref 0 in
        for l = m - 1 downto 0 do
          w := (!w lsl lane_bits) + Array.unsafe_get wrows ((l * taps) + t)
        done;
        Array.unsafe_set wrows t !w
      done;
    let out_base = !j * plane in
    for ci = 0 to cv_cg - 1 do
      let in_ch_base = ((grp * cv_cg) + ci) * chw in
      for ky = 0 to cv_fy - 1 do
        let tap_row = ((ci * cv_fy) + ky) * cv_fx in
        let src_row = in_ch_base + (ky * cv_w) in
        for q = 0 to triples - 1 do
          let kx = 3 * q in
          let w0 = Array.unsafe_get wrows (tap_row + kx)
          and w1 = Array.unsafe_get wrows (tap_row + kx + 1)
          and w2 = Array.unsafe_get wrows (tap_row + kx + 2) in
          if w0 lor w1 lor w2 <> 0 then
            for r = 0 to runs - 1 do
              sweep3 acc pin w0 w1 w2 ~dst:(out_base + (r * cv_ow))
                ~src:(src_row + (r * cv_sy * cv_w) + kx)
                ~len:run_len ~sx:cv_sx
            done
        done;
        for kx = 3 * triples to cv_fx - 1 do
          let w = Array.unsafe_get wrows (tap_row + kx) in
          if w <> 0 then
            for r = 0 to runs - 1 do
              sweep1 acc pin w ~dst:(out_base + (r * cv_ow))
                ~src:(src_row + (r * cv_sy * cv_w) + kx)
                ~len:run_len ~sx:cv_sx
            done
        done
      done
    done;
    incr j;
    k0 := !k0 + m
  done;
  (* Every lane group was swept on the way up; they are unpacked on the
     way back down, in place. Lane groups never straddle conv groups, so
     every conv group but a last partial one holds [per_grp] of them and
     lane group [j] is the [j mod per_grp]-th of conv group
     [j / per_grp]. Row [j] spreads over channels [k0, k0 + m): each lane
     is the sign-extended low [lane_bits] bits left once the lanes below
     it are shifted out. *)
  if lanes > 1 then begin
    let drop = Sys.int_size - lane_bits in
    let per_grp = (kpg + lanes - 1) / lanes in
    for j = !j - 1 downto 0 do
      let grp = j / per_grp in
      let k0 = (grp * kpg) + (j mod per_grp * lanes) in
      let m = min lanes (min cv_k ((grp + 1) * kpg) - k0) in
      for p = 0 to plane - 1 do
        let v = ref (Array.unsafe_get acc ((j * plane) + p)) in
        for l = 0 to m - 1 do
          let s = (!v lsl drop) asr drop in
          Array.unsafe_set acc (((k0 + l) * plane) + p) s;
          v := (!v - s) asr lane_bits
        done
      done
    done
  end

let dense_kernel ~l2 ~ws ~dn_c ~dn_k pin acc =
  Mem.check l2 ws.ws_off ws.ws_bytes;
  let row = dn_c * Dtype.sim_bytes ws.ws_dtype in
  for ko = 0 to dn_k - 1 do
    Array.unsafe_set acc ko
      (Mem.dot l2 ws.ws_dtype (ws.ws_off + (ko * row)) pin ~len:dn_c)
  done

(* Bias add + requantize/cast + optional fused max pool, element-for-element
   [Ir.Layer.apply_epilogue]: same [asr] shift, same clamp bounds (via the
   very same [Dtype.clamp] on the cast path), same [min_int]-seeded max. *)
let run_epilogue ~l2 ep acc out =
  let spatial = ep.ep_spatial in
  let n = ep.ep_k * spatial in
  (match ep.ep_bias with
  | None -> ()
  | Some b ->
      Mem.check l2 b (4 * ep.ep_k);
      for ko = 0 to ep.ep_k - 1 do
        let bv = Mem.read_elt l2 Dtype.I32 (b + (4 * ko)) in
        let base = ko * spatial in
        for s = 0 to spatial - 1 do
          let i = base + s in
          Array.unsafe_set acc i (Array.unsafe_get acc i + bv)
        done
      done);
  let requant dst =
    match ep.ep_shift with
    | Some shift ->
        let lo = if ep.ep_relu then 0 else Dtype.min_value ep.ep_out_dtype in
        let hi = Dtype.max_value ep.ep_out_dtype in
        for i = 0 to n - 1 do
          let v = Array.unsafe_get acc i asr shift in
          let v = if v < lo then lo else if v > hi then hi else v in
          Array.unsafe_set dst i v
        done
    | None ->
        let dt = ep.ep_out_dtype in
        if ep.ep_relu then
          for i = 0 to n - 1 do
            Array.unsafe_set dst i (Dtype.clamp dt (max 0 (Array.unsafe_get acc i)))
          done
        else
          for i = 0 to n - 1 do
            Array.unsafe_set dst i (Dtype.clamp dt (Array.unsafe_get acc i))
          done
  in
  match ep.ep_pool with
  | None -> requant out
  | Some (pwy, pwx, psy, psx, oh, ow) ->
      requant acc;
      for ko = 0 to ep.ep_k - 1 do
        let ch_base = ko * oh * ow in
        for py = 0 to ep.ep_oy - 1 do
          let out_row = ((ko * ep.ep_oy) + py) * ep.ep_ox in
          for px = 0 to ep.ep_ox - 1 do
            let m = ref min_int in
            for ky = 0 to pwy - 1 do
              let row = ch_base + ((((py * psy) + ky) * ow) + (px * psx)) in
              for kx = 0 to pwx - 1 do
                let v = Array.unsafe_get acc (row + kx) in
                if v > !m then m := v
              done
            done;
            Array.unsafe_set out (out_row + px) !m
          done
        done
      done

(* --- Build --------------------------------------------------------------- *)

let build_astep ~platform ~blits ~prog ~accel_name ~(s : S.t) ~ins ~out
    ~weights_offset ~bias_offset =
  let accel = Arch.Platform.find_accel platform accel_name in
  let l = s.S.layer in
  let l1_size = platform.Arch.Platform.l1.Arch.Memory.size_bytes in
  let a_engine = Fault.Plan.Compute (Some accel_name) in
  let fail_step e =
    {
      a_insts = [||];
      a_engine;
      a_counters = Counters.create ();
      a_tpl = [||];
      a_fail = Some e;
    }
  in
  (* Same checks, in the same order, as the slow path performs per run. *)
  let arity_ok =
    match (l.L.kind, ins) with
    | L.Add, [ _; _ ] | (L.Conv _ | L.Dense | L.Pool _), [ _ ] -> true
    | _ -> false
  in
  if not arity_ok then
    fail_step (Invalid_argument "Exec_accel.run: wrong number of input buffers")
  else if l.L.weights <> None && weights_offset < 0 then
    fail_step
      (Invalid_argument "Exec_accel.run: layer has weights but no weight buffer")
  else begin
    let layout = Exec_accel.layout_of s in
    if
      layout.Exec_accel.slots
      * (layout.Exec_accel.in_size + layout.Exec_accel.out_size)
      > l1_size
    then fail_step (Mem.Fault "L1 scratch exceeds L1 size")
    else begin
      match (l.L.kind, l.L.weights) with
      | L.Conv _, None ->
          fail_step (Invalid_argument "Layer.execute: conv without weights")
      | L.Dense, None ->
          fail_step (Invalid_argument "Layer.execute: dense without weights")
      | _ when (match l.L.shift with Some sft -> sft < 0 | None -> false) ->
          fail_step (Invalid_argument "requantize: negative shift")
      | _ ->
          let dma = platform.Arch.Platform.dma in
          let in_offsets =
            List.map (fun id -> (P.buffer prog id).P.l2_offset) ins
          in
          let out_offset = (P.buffer prog out).P.l2_offset in
          (* The slices [Exec_accel.weight_slice] and [bias_slice] read. *)
          let wslice ~k0 ~kd =
            let w = Option.get l.L.weights in
            let ws_dtype = Tensor.dtype w in
            let per_k = Tensor.numel w / Tensor.dim w 0 * Dtype.sim_bytes ws_dtype in
            { ws_dtype; ws_off = weights_offset + (k0 * per_k); ws_bytes = kd * per_k }
          in
          let dw = L.is_depthwise l in
          let elt_in = Dtype.sim_bytes l.L.in_dtype in
          let elt_out = Dtype.sim_bytes l.L.out_dtype in
          let insts = Array.of_list s.S.instances in
          let n = Array.length insts in
          let din = Array.make n 0
          and wls = Array.make n 0
          and ccs = Array.make n 0
          and dout = Array.make n 0
          and bin = Array.make n 0
          and bout = Array.make n 0 in
          let make_epilogue ~k ~oh ~ow ~k0 =
            let pool, oy, ox =
              match l.L.fused_pool with
              | None -> (None, oh, ow)
              | Some { Ir.Op.pool = pwy, pwx; pool_stride = psy, psx } ->
                  ( Some (pwy, pwx, psy, psx, oh, ow),
                    ((oh - pwy) / psy) + 1,
                    ((ow - pwx) / psx) + 1 )
            in
            {
              ep_k = k;
              ep_spatial = oh * ow;
              ep_bias = Option.map (fun _ -> bias_offset + (4 * k0)) l.L.bias;
              ep_shift = l.L.shift;
              ep_relu = l.L.relu;
              ep_out_dtype = l.L.out_dtype;
              ep_pool = pool;
              ep_oy = oy;
              ep_ox = ox;
            }
          in
          let plan_insts =
            Array.mapi
              (fun i (inst : S.instance) ->
                let d = inst.S.dims in
                let in_off = Exec_accel.in_base layout i in
                let out_off = Exec_accel.out_base layout i in
                (* Input DMA geometry, mirroring [Exec_accel.dma_in]. *)
                let chunks_in, bytes_in =
                  match l.L.kind with
                  | L.Dense ->
                      let bytes = d.Tile.c * elt_in in
                      push_blit blits ~src:(List.hd in_offsets) ~dst:in_off ~len:bytes;
                      (1, bytes)
                  | L.Conv _ | L.Pool _ ->
                      let chans, rows, cols = S.input_slice_dims s inst in
                      let ch0 = if dw then inst.S.k0 else 0 in
                      window_blits ~to_l1:true ~elt_bytes:elt_in
                        ~l2_off:(List.hd in_offsets) ~l1_off:in_off
                        ~full_h:l.L.in_shape.(1) ~full_w:l.L.in_shape.(2) ~ch0
                        ~y0:inst.S.iy0 ~x0:inst.S.ix0 ~chans ~rows ~cols blits
                  | L.Add ->
                      let chans = d.Tile.c
                      and rows = d.Tile.oy
                      and cols = d.Tile.ox in
                      let slab_bytes = chans * rows * cols * elt_in in
                      List.fold_left
                        (fun (c, b) (which, off) ->
                          let c', b' =
                            window_blits ~to_l1:true ~elt_bytes:elt_in ~l2_off:off
                              ~l1_off:(in_off + (which * slab_bytes))
                              ~full_h:l.L.in_shape.(1) ~full_w:l.L.in_shape.(2)
                              ~ch0:0 ~y0:inst.S.oy0 ~x0:0 ~chans ~rows ~cols
                              blits
                          in
                          (c + c', b + b'))
                        (0, 0)
                        (List.mapi (fun which off -> (which, off)) in_offsets)
                in
                let i_in_blits = take_blits blits in
                (* Output DMA geometry, mirroring [Exec_accel.dma_out]. *)
                let chunks_out, bytes_out =
                  match l.L.kind with
                  | L.Dense ->
                      let bytes = d.Tile.k * elt_out in
                      push_blit blits ~src:out_off
                        ~dst:(out_offset + (inst.S.k0 * elt_out))
                        ~len:bytes;
                      (1, bytes)
                  | L.Conv _ | L.Pool _ | L.Add ->
                      window_blits ~to_l1:false ~elt_bytes:elt_out
                        ~l2_off:out_offset ~l1_off:out_off
                        ~full_h:l.L.out_shape.(1) ~full_w:l.L.out_shape.(2)
                        ~ch0:inst.S.k0 ~y0:inst.S.oy0 ~x0:inst.S.ox0
                        ~chans:d.Tile.k ~rows:d.Tile.oy ~cols:d.Tile.ox blits
                in
                let i_out_blits = take_blits blits in
                din.(i) <-
                  Arch.Memory.transfer_cycles dma ~chunks:chunks_in ~bytes:bytes_in;
                bin.(i) <- bytes_in;
                wls.(i) <-
                  (if inst.S.load_weights then
                     accel.Arch.Accel.weight_load_cycles l d
                   else 0);
                ccs.(i) <- accel.Arch.Accel.compute_cycles l d;
                dout.(i) <-
                  Arch.Memory.transfer_cycles dma ~chunks:chunks_out
                    ~bytes:bytes_out;
                bout.(i) <- bytes_out;
                (* Compute descriptor + scratch sizing. *)
                let compute, scr =
                  match l.L.kind with
                  | L.Conv p ->
                      let chans, rows, cols = S.input_slice_dims s inst in
                      let ph = inst.S.pad_top + rows + inst.S.pad_bottom in
                      let pw = inst.S.pad_left + cols + inst.S.pad_right in
                      let w = Option.get l.L.weights in
                      let cg = Tensor.dim w 1 in
                      let fy = Tensor.dim w 2 and fx = Tensor.dim w 3 in
                      let sy, sx = p.K.stride in
                      let groups = if dw then d.Tile.k else p.K.groups in
                      let oh, ow =
                        K.conv_out_dims ~in_dims:(ph, pw) ~kernel:(fy, fx)
                          { p with K.padding = (0, 0) }
                      in
                      let ep = make_epilogue ~k:d.Tile.k ~oh ~ow ~k0:inst.S.k0 in
                      let ws = wslice ~k0:inst.S.k0 ~kd:d.Tile.k in
                      let lanes, lane_bits =
                        conv_lanes ~in_dtype:l.L.in_dtype ~w_dtype:ws.ws_dtype
                          ~taps:(cg * fy * fx) ~kpg:(d.Tile.k / groups)
                      in
                      ( CConv
                          {
                            cv_chans = chans;
                            cv_h = ph;
                            cv_w = pw;
                            cv_rows = rows;
                            cv_cols = cols;
                            cv_pt = inst.S.pad_top;
                            cv_pl = inst.S.pad_left;
                            cv_k = d.Tile.k;
                            cv_cg = cg;
                            cv_fy = fy;
                            cv_fx = fx;
                            cv_sy = sy;
                            cv_sx = sx;
                            cv_groups = groups;
                            cv_oh = oh;
                            cv_ow = ow;
                            cv_ws = ws;
                            cv_lanes = lanes;
                            cv_lane_bits = lane_bits;
                            cv_in_dtype = l.L.in_dtype;
                            cv_ep = ep;
                          },
                        {
                          ss_pin = chans * ph * pw;
                          ss_acc = d.Tile.k * oh * ow;
                          ss_out = d.Tile.k * ep.ep_oy * ep.ep_ox;
                          ss_tensor = None;
                        } )
                  | L.Dense ->
                      let ep = make_epilogue ~k:d.Tile.k ~oh:1 ~ow:1 ~k0:inst.S.k0 in
                      ( CDense
                          {
                            dn_c = d.Tile.c;
                            dn_k = d.Tile.k;
                            dn_ws = wslice ~k0:inst.S.k0 ~kd:d.Tile.k;
                            dn_in_dtype = l.L.in_dtype;
                            dn_ep = ep;
                          },
                        {
                          ss_pin = d.Tile.c;
                          ss_acc = d.Tile.k;
                          ss_out = d.Tile.k;
                          ss_tensor = None;
                        } )
                  | L.Add ->
                      let chans = d.Tile.c
                      and rows = d.Tile.oy
                      and cols = d.Tile.ox in
                      let slab = chans * rows * cols in
                      let ep =
                        make_epilogue ~k:chans ~oh:rows ~ow:cols ~k0:inst.S.k0
                      in
                      ( CAdd { ad_n = slab; ad_in_dtype = l.L.in_dtype; ad_ep = ep },
                        {
                          ss_pin = 2 * slab;
                          ss_acc = slab;
                          ss_out = slab;
                          ss_tensor = None;
                        } )
                  | L.Pool _ ->
                      let chans, rows, cols = S.input_slice_dims s inst in
                      let ph = inst.S.pad_top + rows + inst.S.pad_bottom in
                      let pw = inst.S.pad_left + cols + inst.S.pad_right in
                      let sliced =
                        {
                          l with
                          L.in_shape = [| chans; ph; pw |];
                          out_shape = [| d.Tile.k; d.Tile.oy; d.Tile.ox |];
                        }
                      in
                      ( CPool
                          {
                            pl_layer = sliced;
                            pl_chans = chans;
                            pl_rows = rows;
                            pl_cols = cols;
                            pl_h = ph;
                            pl_w = pw;
                            pl_pt = inst.S.pad_top;
                            pl_pl = inst.S.pad_left;
                            pl_in_dtype = l.L.in_dtype;
                          },
                        {
                          ss_pin = 0;
                          ss_acc = 0;
                          ss_out = 0;
                          ss_tensor = Some (l.L.in_dtype, [| chans; ph; pw |]);
                        } )
                in
                let out_len =
                  match compute with
                  | CConv { cv_ep = ep; cv_k = k; _ } -> k * ep.ep_oy * ep.ep_ox
                  | CDense { dn_k; _ } -> dn_k
                  | CAdd { ad_n; _ } -> ad_n
                  | CPool _ -> 0 (* encoded from the executed tensor directly *)
                in
                {
                  i_in_blits;
                  i_out_blits;
                  i_in_off = in_off;
                  i_out_off = out_off;
                  i_out_dtype = l.L.out_dtype;
                  i_out_len = out_len;
                  i_compute = compute;
                  i_scr = scr;
                  i_din = din.(i);
                  i_wl = wls.(i);
                  i_wload = inst.S.load_weights && l.L.weights <> None;
                  i_cc = ccs.(i);
                  i_dout = dout.(i);
                  i_out_bytes = Tile.bytes_out l d;
                })
              insts
          in
          (* Counters template + trace timeline, exactly as the slow path
             derives them from the per-tile cost arrays. *)
          let overhead =
            accel.Arch.Accel.setup_cycles + (n * accel.Arch.Accel.tile_overhead_cycles)
          in
          let c = Counters.create () in
          Array.iteri
            (fun i _ ->
              c.Counters.accel_compute <- c.Counters.accel_compute + ccs.(i);
              c.Counters.weight_load <- c.Counters.weight_load + wls.(i);
              c.Counters.dma_in <- c.Counters.dma_in + din.(i);
              c.Counters.dma_out <- c.Counters.dma_out + dout.(i);
              c.Counters.dma_bytes_in <- c.Counters.dma_bytes_in + bin.(i);
              c.Counters.dma_bytes_out <- c.Counters.dma_bytes_out + bout.(i))
            insts;
          c.Counters.host_overhead <- overhead;
          let tpl = ref [] in
          let emit ~track ~ts ~dur ~args name =
            if dur > 0 then
              tpl :=
                { tv_track = track; tv_ts = ts; tv_dur = dur; tv_args = args; tv_name = name }
                :: !tpl
          in
          let wall =
            Exec_accel.timeline ~double_buffer:s.S.double_buffer
              ~engine:accel.Arch.Accel.accel_name ~overhead ~t0:0 ~din ~wls ~ccs
              ~dout ~bin ~bout ~emit
          in
          c.Counters.stall <-
            max 0
              (wall - overhead - c.Counters.accel_compute - c.Counters.weight_load);
          c.Counters.wall <- wall;
          {
            a_insts = plan_insts;
            a_engine;
            a_counters = c;
            a_tpl = Array.of_list (List.rev !tpl);
            a_fail = None;
          }
    end
  end

let next_id = Atomic.make 0

let build ~platform (prog : P.t) =
  (match P.validate prog with
  | Ok () -> ()
  | Error e -> invalid_arg ("Plan.build: invalid program: " ^ e));
  let l2_size = platform.Arch.Platform.l2.Arch.Memory.size_bytes in
  let l1_size = platform.Arch.Platform.l1.Arch.Memory.size_bytes in
  (* Only the weight images' extent is taken here; [checkout] encodes
     them. An image outside L2 faults now, as the oracle's preload does:
     only then is the oracle's write sequence run, into an L2-sized
     memory, so that the first fault raised is the one the oracle's
     preload raises. *)
  let images = prog.P.weight_images in
  if List.exists (fun (off, t) -> off < 0 || off + Tensor.sim_bytes t > l2_size) images
  then ignore (Mem.encode_image "L2" l2_size images);
  let image_bytes =
    List.fold_left (fun m (off, t) -> max m (off + Tensor.sim_bytes t)) 0 images
  in
  let blits = { bl = Array.make 48 0; bn = 0 } in
  let p_steps =
    Array.of_list
      (List.map
         (function
           | P.Cpu _ -> None
           | P.Accel { accel_name; schedule; ins; out; weights_offset; bias_offset }
             ->
               Some
                 (build_astep ~platform ~blits ~prog ~accel_name ~s:schedule ~ins
                    ~out ~weights_offset ~bias_offset))
         prog.P.steps)
  in
  let fold_insts f =
    Array.fold_left
      (fun n -> function Some a -> Array.fold_left f n a.a_insts | None -> n)
      0 p_steps
  in
  let tiles = fold_insts (fun n _ -> n + 1) in
  let scratch_words =
    fold_insts (fun n i ->
        n + i.i_scr.ss_pin + i.i_scr.ss_acc + i.i_scr.ss_out
        + (match i.i_scr.ss_tensor with
          | Some (_, shape) -> Array.fold_left ( * ) 1 shape
          | None -> 0))
  in
  (* One buffer of decoded filter rows serves every conv tile of the
     arena: a lane group's [lanes] rows of [taps] weights. *)
  let wrows =
    fold_insts (fun n i ->
        match i.i_compute with
        | CConv cv -> max n (cv.cv_lanes * cv.cv_cg * cv.cv_fy * cv.cv_fx)
        | CDense _ | CAdd _ | CPool _ -> n)
  in
  (* No step's timing depends on the data it moves: a fault-free run's
     wall is the sum of the accelerator templates' and the CPU kernels'
     cycles. *)
  let service_cycles =
    List.fold_left
      (fun n -> function P.Cpu { cycles; _ } -> n + cycles | P.Accel _ -> n)
      0 prog.P.steps
    + Array.fold_left
        (fun n -> function Some a -> n + a.a_counters.Counters.wall | None -> n)
        0 p_steps
  in
  {
    p_prog = prog;
    p_steps;
    p_image_bytes = image_bytes;
    p_image = Atomic.make None;
    p_l1_size = l1_size;
    p_l2_size = l2_size;
    p_id = Atomic.fetch_and_add next_id 1;
    p_tiles = tiles;
    p_scratch_words = scratch_words + wrows;
    p_wrows = wrows;
    p_service_cycles = service_cycles;
  }

(* --- Arenas -------------------------------------------------------------- *)

let alloc_arena plan =
  let ar_l2 = Mem.create "L2" plan.p_l2_size in
  let ar_l1 = Mem.create "L1" plan.p_l1_size in
  let ar_scratch =
    Array.map
      (function
        | None -> [||]
        | Some a ->
            Array.map
              (fun i ->
                {
                  sc_pin = Array.make i.i_scr.ss_pin 0;
                  sc_acc = Array.make i.i_scr.ss_acc 0;
                  sc_out = Array.make i.i_scr.ss_out 0;
                  sc_tensor =
                    Option.map
                      (fun (dt, shape) -> Tensor.create dt shape)
                      i.i_scr.ss_tensor;
                })
              a.a_insts)
      plan.p_steps
  in
  { ar_l2; ar_l1; ar_scratch; ar_wrows = Array.make plan.p_wrows 0 }

(* Each domain maps its plans to their arenas through ephemerons, so an
   arena dies with its plan (the table never keeps a plan alive) or with
   its domain (the table lives in domain-local storage). Only the owning
   domain touches its table, which is the synchronization the weak table
   asks for. *)
module Arenas = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash p = p.p_id
end)

let arenas = Domain.DLS.new_key (fun () -> Arenas.create 8)

let arena plan =
  let table = Domain.DLS.get arenas in
  match Arenas.find_opt table plan with
  | Some ar -> ar
  | None ->
      let ar = alloc_arena plan in
      Arenas.replace table plan ar;
      ar

(* The weight images' bytes, encoded by the plan's first checkout in any
   domain and kept: two domains racing on it both encode the same bytes,
   and the first to publish wins. (A [Lazy.t] raises when two domains
   force it at once.) An image holding a value out of its dtype's range
   raises the oracle's [Mem.Fault] on every checkout, as the oracle's
   preload does on every run. *)
let image plan =
  match Atomic.get plan.p_image with
  | Some img -> img
  | None ->
      let img = Mem.encode_image "L2" plan.p_image_bytes plan.p_prog.P.weight_images in
      ignore (Atomic.compare_and_set plan.p_image None (Some img));
      img

let checkout plan =
  let img = image plan in
  let ar = arena plan in
  (* Rewind to the exact state [Machine.run] would build from scratch: a
     zeroed L2 holding the weight images (with its post-load high-water
     mark) and a poisoned L1. *)
  Mem.restore ar.ar_l2 img;
  Mem.fill ar.ar_l1 0x5A;
  Mem.reset_high_water ar.ar_l1;
  (ar.ar_l2, ar.ar_l1)

(* --- Per-request execution ----------------------------------------------- *)

let copy_counters c =
  let r = Counters.create () in
  Counters.add r c;
  r

let exec_compute ~l2 ~l1 ~wrows inst scr =
  match inst.i_compute with
  | CConv cv ->
      fill_padded ~l1 ~dtype:cv.cv_in_dtype ~l1_off:inst.i_in_off ~dst:scr.sc_pin
        ~chans:cv.cv_chans ~rows:cv.cv_rows ~cols:cv.cv_cols ~ph:cv.cv_h
        ~pw:cv.cv_w ~pt:cv.cv_pt ~pl:cv.cv_pl;
      conv_kernel ~l2 ~ws:cv.cv_ws ~cv_w:cv.cv_w ~cv_k:cv.cv_k ~cv_cg:cv.cv_cg
        ~cv_fy:cv.cv_fy ~cv_fx:cv.cv_fx ~cv_sy:cv.cv_sy ~cv_sx:cv.cv_sx
        ~cv_groups:cv.cv_groups ~cv_oh:cv.cv_oh ~cv_ow:cv.cv_ow ~lanes:cv.cv_lanes
        ~lane_bits:cv.cv_lane_bits ~chw:(cv.cv_h * cv.cv_w) scr.sc_pin scr.sc_acc
        wrows;
      run_epilogue ~l2 cv.cv_ep scr.sc_acc scr.sc_out;
      Mem.write_flat_from l1 inst.i_out_dtype inst.i_out_off scr.sc_out ~pos:0
        ~len:inst.i_out_len
  | CDense dn ->
      Mem.read_flat_into l1 dn.dn_in_dtype inst.i_in_off scr.sc_pin ~pos:0
        ~len:dn.dn_c;
      dense_kernel ~l2 ~ws:dn.dn_ws ~dn_c:dn.dn_c ~dn_k:dn.dn_k scr.sc_pin scr.sc_acc;
      run_epilogue ~l2 dn.dn_ep scr.sc_acc scr.sc_out;
      Mem.write_flat_from l1 inst.i_out_dtype inst.i_out_off scr.sc_out ~pos:0
        ~len:inst.i_out_len
  | CAdd ad ->
      Mem.read_flat_into l1 ad.ad_in_dtype inst.i_in_off scr.sc_pin ~pos:0
        ~len:(2 * ad.ad_n);
      let pin = scr.sc_pin and acc = scr.sc_acc in
      for i = 0 to ad.ad_n - 1 do
        Array.unsafe_set acc i
          (Array.unsafe_get pin i + Array.unsafe_get pin (ad.ad_n + i))
      done;
      run_epilogue ~l2 ad.ad_ep acc scr.sc_out;
      Mem.write_flat_from l1 inst.i_out_dtype inst.i_out_off scr.sc_out ~pos:0
        ~len:inst.i_out_len
  | CPool pl ->
      let input = Option.get scr.sc_tensor in
      fill_padded ~l1 ~dtype:pl.pl_in_dtype ~l1_off:inst.i_in_off
        ~dst:(Tensor.unsafe_data input) ~chans:pl.pl_chans ~rows:pl.pl_rows
        ~cols:pl.pl_cols ~ph:pl.pl_h ~pw:pl.pl_w ~pt:pl.pl_pt ~pl:pl.pl_pl;
      let out = L.execute pl.pl_layer input in
      Mem.write_flat_from l1 inst.i_out_dtype inst.i_out_off
        (Tensor.unsafe_data out) ~pos:0 ~len:(Tensor.numel out)

let run_accel_step plan ~step_index ~l2 ~l1 ?trace ?faults ?(retry_budget = 3)
    ~t0 () =
  let a =
    match plan.p_steps.(step_index) with
    | Some a -> a
    | None -> invalid_arg "Plan.run_accel_step: step is not an accelerator step"
  in
  (match a.a_fail with Some e -> raise e | None -> ());
  let ar = arena plan in
  let scratch = ar.ar_scratch.(step_index) in
  let c = copy_counters a.a_counters in
  let rc = Resilience.make ?faults ~retry_budget c in
  (* The slow path's guard sequence per tile ([Exec_accel.run]),
     interleaved with the same memory operations in the same order, so
     every session draw, every silent flip and every [Unrecovered] raise
     lands exactly where the oracle's does. Without a session each guard
     returns at once; detected faults never touch memory. *)
  Array.iteri
    (fun i inst ->
      replay_blits ~src:l2 ~dst:l1 inst.i_in_blits;
      Resilience.guard rc ~site:Fault.Plan.Dma_in ~cycles:inst.i_din
        ~flip_detected:true ();
      if inst.i_wload then
        Resilience.guard rc ~site:Fault.Plan.Weight_load ~cycles:inst.i_wl
          ~flip_detected:true ();
      exec_compute ~l2 ~l1 ~wrows:ar.ar_wrows inst scratch.(i);
      Resilience.guard rc ~site:a.a_engine ~cycles:inst.i_cc
        ~corrupt:(fun fs bits ->
          Resilience.flip_in_mem fs l1 ~base:inst.i_out_off
            ~bytes:inst.i_out_bytes bits)
        ~flip_detected:false ();
      replay_blits ~src:l1 ~dst:l2 inst.i_out_blits;
      Resilience.guard rc ~site:Fault.Plan.Dma_out ~cycles:inst.i_dout
        ~flip_detected:true ())
    a.a_insts;
  if Trace.enabled trace then
    Array.iter
      (fun tv ->
        Trace.interval trace ~track:tv.tv_track ~ts:(t0 + tv.tv_ts) ~dur:tv.tv_dur
          ~args:tv.tv_args tv.tv_name)
      a.a_tpl;
  (* As in the slow path: fault effects extend the step past its
     fault-free wall, base counters keep their clean values. *)
  Resilience.emit_events rc trace ~ts:(t0 + a.a_counters.Counters.wall);
  c.Counters.wall <- c.Counters.wall + c.Counters.retry_cycles + c.Counters.fault_stall;
  c
