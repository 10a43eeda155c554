module L = Ir.Layer
module S = Dory.Schedule
module Tile = Arch.Tile
module P = Program
module Dtype = Tensor.Dtype
module K = Nn.Kernels

(* A compiled execution plan resolves, once per artifact, everything the
   per-request slow path ([Exec_accel.run]) recomputes per request: tile
   instance dims, L1 slot layouts, DMA window geometry as flat blit lists,
   weight/bias slices as decoded flat arrays, padded-input shapes, the
   per-step counters and the trace timeline. The per-request loop is then
   pure data movement and kernel math over preallocated scratch arenas.

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
   adds nothing, so skipping it changes no sum; and a pre-zero-padded
   input contributes exactly 0 at the out-of-range taps the slow path's
   bounds checks skip. L2 bit rot in a weight image is outside the
   contract: the weights were decoded at build time, so [Machine.run]
   hands the request's later steps to the slow path. *)

(* --- Plan data types ---------------------------------------------------- *)

type epilogue = {
  ep_k : int;  (* output channels of the tile *)
  ep_spatial : int;  (* pre-pool spatial extent (oh * ow) *)
  ep_bias : int array option;  (* full decoded bias; slice starts at ep_bias_off *)
  ep_bias_off : int;
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
      cv_wdata : int array;  (* full decoded weights *)
      cv_woff : int;  (* flat element offset of the k0 slice *)
      cv_in_dtype : Dtype.t;
      cv_ep : epilogue;
    }
  | CDense of {
      dn_c : int;
      dn_k : int;
      dn_wdata : int array;
      dn_woff : int;
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

type arena = { ar_l2 : Mem.t; ar_l1 : Mem.t; ar_scratch : scratch array array }

type t = {
  p_prog : P.t;
  p_steps : astep option array;  (* aligned with [prog.steps]; None = Cpu *)
  p_l2_image : Bytes.t;  (* post-weight-load L2 snapshot *)
  p_l2_hwm : int;
  p_l1_size : int;
  p_l2_size : int;
  p_id : int;  (* unique per plan: its hash in the arena tables *)
  p_tiles : int;
  p_scratch_words : int;
}

type stats = {
  accel_steps : int;
  tiles : int;
  scratch_words : int;
  image_bytes : int;
}

let program t = t.p_prog

let stats t =
  {
    accel_steps =
      Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.p_steps;
    tiles = t.p_tiles;
    scratch_words = t.p_scratch_words;
    image_bytes = Bytes.length t.p_l2_image;
  }

(* --- Build-time geometry ------------------------------------------------- *)

(* Row-blit triples of [Exec_accel.copy_window], in the same order; returns
   (chunks, bytes) under the same cost formula. *)
let window_blits ~to_l1 ~elt_bytes ~l2_off ~l1_off ~full_h ~full_w ~ch0 ~y0 ~x0
    ~chans ~rows ~cols acc =
  let bytes_per_row = cols * elt_bytes in
  for ch = 0 to chans - 1 do
    for row = 0 to rows - 1 do
      let l2_pos =
        l2_off + ((((ch0 + ch) * full_h) + (y0 + row)) * full_w + x0) * elt_bytes
      in
      let l1_pos = l1_off + (((ch * rows) + row) * bytes_per_row) in
      acc :=
        (if to_l1 then (l2_pos, l1_pos, bytes_per_row)
         else (l1_pos, l2_pos, bytes_per_row))
        :: !acc
    done
  done;
  let chunks = if cols = full_w then chans else chans * rows in
  (chunks, chans * rows * bytes_per_row)

(* Coalesce blits that are consecutive in both source and destination into
   one longer blit (an untiled layer's whole window collapses to a single
   copy). The copied bytes and the destination high-water mark are
   unchanged, only the call count drops. *)
let pack_blits triples =
  let merged =
    List.fold_left
      (fun acc (s, d, l) ->
        match acc with
        | (ps, pd, pl) :: rest when ps + pl = s && pd + pl = d ->
            (ps, pd, pl + l) :: rest
        | _ -> (s, d, l) :: acc)
      [] triples
  in
  let merged = List.rev merged in
  let out = Array.make (3 * List.length merged) 0 in
  List.iteri
    (fun i (s, d, l) ->
      out.(3 * i) <- s;
      out.((3 * i) + 1) <- d;
      out.((3 * i) + 2) <- l)
    merged;
  out

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

(* Weight-stationary: each tap weight is loaded once, skipped when zero,
   and swept across the output plane in runs of contiguous output columns,
   so the innermost loop no longer spans the 1-3 kernel columns. The terms
   are [Nn.Kernels.conv2d]'s, summed in a different order. *)
let conv_kernel ~cv_w ~cv_k ~cv_cg ~cv_fy ~cv_fx ~cv_sy ~cv_sx ~cv_groups ~cv_oh
    ~cv_ow ~wdata ~woff ~chw pin acc =
  let kpg = cv_k / cv_groups in
  let plane = cv_oh * cv_ow in
  let taps = cv_cg * cv_fy * cv_fx in
  (* A one-column kernel at unit stride reads input rows exactly as wide
     as the output's, so the whole plane is one run; otherwise each
     output row is. *)
  let runs, run_len =
    if cv_sy = 1 && cv_sx = 1 && cv_w = cv_ow then (1, plane) else (cv_oh, cv_ow)
  in
  Array.fill acc 0 (cv_k * plane) 0;
  for ko = 0 to cv_k - 1 do
    let grp = ko / kpg in
    let out_base = ko * plane in
    for ci = 0 to cv_cg - 1 do
      let in_ch_base = ((grp * cv_cg) + ci) * chw in
      for ky = 0 to cv_fy - 1 do
        for kx = 0 to cv_fx - 1 do
          let wv =
            Array.unsafe_get wdata
              (woff + (ko * taps) + (((ci * cv_fy) + ky) * cv_fx) + kx)
          in
          if wv <> 0 then
            for r = 0 to runs - 1 do
              let src = in_ch_base + (((r * cv_sy) + ky) * cv_w) + kx
              and dst = out_base + (r * cv_ow) in
              if cv_sx = 1 then
                for i = 0 to run_len - 1 do
                  let o = dst + i in
                  Array.unsafe_set acc o
                    (Array.unsafe_get acc o + (wv * Array.unsafe_get pin (src + i)))
                done
              else
                for i = 0 to run_len - 1 do
                  let o = dst + i in
                  Array.unsafe_set acc o
                    (Array.unsafe_get acc o
                    + (wv * Array.unsafe_get pin (src + (i * cv_sx))))
                done
            done
        done
      done
    done
  done

let dense_kernel ~dn_c ~dn_k ~wdata ~woff pin acc =
  for ko = 0 to dn_k - 1 do
    let w_base = woff + (ko * dn_c) in
    let acc_v = ref 0 in
    for ci = 0 to dn_c - 1 do
      acc_v := !acc_v + (Array.unsafe_get pin ci * Array.unsafe_get wdata (w_base + ci))
    done;
    Array.unsafe_set acc ko !acc_v
  done

(* Bias add + requantize/cast + optional fused max pool, element-for-element
   [Ir.Layer.apply_epilogue]: same [asr] shift, same clamp bounds (via the
   very same [Dtype.clamp] on the cast path), same [min_int]-seeded max. *)
let run_epilogue ep acc out =
  let spatial = ep.ep_spatial in
  let n = ep.ep_k * spatial in
  (match ep.ep_bias with
  | None -> ()
  | Some b ->
      for ko = 0 to ep.ep_k - 1 do
        let bv = Array.unsafe_get b (ep.ep_bias_off + ko) in
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

let decode_tensor l2 off (tensor : Tensor.t) =
  let n = Tensor.numel tensor in
  let data = Array.make n 0 in
  Mem.read_flat_into l2 (Tensor.dtype tensor) off data ~pos:0 ~len:n;
  data

let build_astep ~platform ~l2b ~prog ~accel_name ~(s : S.t) ~ins ~out
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
      | _ when l.L.bias <> None && bias_offset < 0 ->
          (* The slow path would fault reading the bias slice at a negative
             offset; keep the fast path loud rather than silently skipping
             the bias. *)
          fail_step (Mem.Fault "L2: bias buffer offset out of range")
      | _ ->
          let dma = platform.Arch.Platform.dma in
          let in_offsets =
            List.map (fun id -> (P.buffer prog id).P.l2_offset) ins
          in
          let out_offset = (P.buffer prog out).P.l2_offset in
          let wdata, per_k_elems =
            match l.L.weights with
            | Some w -> (decode_tensor l2b weights_offset w, Tensor.numel w / Tensor.dim w 0)
            | None -> ([||], 0)
          in
          let bdata =
            match l.L.bias with
            | Some b -> Some (decode_tensor l2b bias_offset b)
            | None -> None
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
              ep_bias = bdata;
              ep_bias_off = k0;
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
                let in_acc = ref [] in
                let chunks_in, bytes_in =
                  match l.L.kind with
                  | L.Dense ->
                      let bytes = d.Tile.c * elt_in in
                      in_acc := [ (List.hd in_offsets, in_off, bytes) ];
                      (1, bytes)
                  | L.Conv _ | L.Pool _ ->
                      let chans, rows, cols = S.input_slice_dims s inst in
                      let ch0 = if dw then inst.S.k0 else 0 in
                      window_blits ~to_l1:true ~elt_bytes:elt_in
                        ~l2_off:(List.hd in_offsets) ~l1_off:in_off
                        ~full_h:l.L.in_shape.(1) ~full_w:l.L.in_shape.(2) ~ch0
                        ~y0:inst.S.iy0 ~x0:inst.S.ix0 ~chans ~rows ~cols in_acc
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
                              in_acc
                          in
                          (c + c', b + b'))
                        (0, 0)
                        (List.mapi (fun which off -> (which, off)) in_offsets)
                in
                (* Output DMA geometry, mirroring [Exec_accel.dma_out]. *)
                let out_acc = ref [] in
                let chunks_out, bytes_out =
                  match l.L.kind with
                  | L.Dense ->
                      let bytes = d.Tile.k * elt_out in
                      out_acc :=
                        [ (out_off, out_offset + (inst.S.k0 * elt_out), bytes) ];
                      (1, bytes)
                  | L.Conv _ | L.Pool _ | L.Add ->
                      window_blits ~to_l1:false ~elt_bytes:elt_out
                        ~l2_off:out_offset ~l1_off:out_off
                        ~full_h:l.L.out_shape.(1) ~full_w:l.L.out_shape.(2)
                        ~ch0:inst.S.k0 ~y0:inst.S.oy0 ~x0:inst.S.ox0
                        ~chans:d.Tile.k ~rows:d.Tile.oy ~cols:d.Tile.ox out_acc
                in
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
                            cv_wdata = wdata;
                            cv_woff = inst.S.k0 * per_k_elems;
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
                            dn_wdata = wdata;
                            dn_woff = inst.S.k0 * per_k_elems;
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
                  i_in_blits = pack_blits (List.rev !in_acc);
                  i_out_blits = pack_blits (List.rev !out_acc);
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
  let l2b = Mem.create "L2" l2_size in
  List.iter (fun (off, t) -> Mem.write_tensor l2b off t) prog.P.weight_images;
  let p_steps =
    Array.of_list
      (List.map
         (function
           | P.Cpu _ -> None
           | P.Accel { accel_name; schedule; ins; out; weights_offset; bias_offset }
             ->
               Some
                 (build_astep ~platform ~l2b ~prog ~accel_name ~s:schedule ~ins
                    ~out ~weights_offset ~bias_offset))
         prog.P.steps)
  in
  let tiles =
    Array.fold_left
      (fun n -> function Some a -> n + Array.length a.a_insts | None -> n)
      0 p_steps
  in
  let scratch_words =
    Array.fold_left
      (fun n -> function
        | None -> n
        | Some a ->
            Array.fold_left
              (fun n i ->
                n + i.i_scr.ss_pin + i.i_scr.ss_acc + i.i_scr.ss_out
                + (match i.i_scr.ss_tensor with
                  | Some (_, shape) -> Array.fold_left ( * ) 1 shape
                  | None -> 0))
              n a.a_insts)
      0 p_steps
  in
  {
    p_prog = prog;
    p_steps;
    p_l2_image = Mem.image l2b;
    p_l2_hwm = Mem.high_water l2b;
    p_l1_size = l1_size;
    p_l2_size = l2_size;
    p_id = Atomic.fetch_and_add next_id 1;
    p_tiles = tiles;
    p_scratch_words = scratch_words;
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
  { ar_l2; ar_l1; ar_scratch }

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

let arena plan ~fresh =
  let table = Domain.DLS.get arenas in
  match Arenas.find_opt table plan with
  | Some ar when not fresh -> ar
  | _ ->
      let ar = alloc_arena plan in
      Arenas.replace table plan ar;
      ar

let checkout ?(fresh = false) plan =
  let ar = arena plan ~fresh in
  (* Rewind to the exact state [Machine.run] would build from scratch: a
     zeroed L2 holding the weight images (with its post-load high-water
     mark) and a poisoned L1. *)
  Mem.restore ar.ar_l2 plan.p_l2_image ~hwm:plan.p_l2_hwm;
  Mem.fill ar.ar_l1 0x5A;
  Mem.reset_high_water ar.ar_l1;
  (ar.ar_l2, ar.ar_l1)

(* --- Per-request execution ----------------------------------------------- *)

let copy_counters c =
  let r = Counters.create () in
  Counters.add r c;
  r

let exec_compute ~l1 inst scr =
  match inst.i_compute with
  | CConv cv ->
      fill_padded ~l1 ~dtype:cv.cv_in_dtype ~l1_off:inst.i_in_off ~dst:scr.sc_pin
        ~chans:cv.cv_chans ~rows:cv.cv_rows ~cols:cv.cv_cols ~ph:cv.cv_h
        ~pw:cv.cv_w ~pt:cv.cv_pt ~pl:cv.cv_pl;
      conv_kernel ~cv_w:cv.cv_w ~cv_k:cv.cv_k ~cv_cg:cv.cv_cg
        ~cv_fy:cv.cv_fy ~cv_fx:cv.cv_fx ~cv_sy:cv.cv_sy ~cv_sx:cv.cv_sx
        ~cv_groups:cv.cv_groups ~cv_oh:cv.cv_oh ~cv_ow:cv.cv_ow ~wdata:cv.cv_wdata
        ~woff:cv.cv_woff ~chw:(cv.cv_h * cv.cv_w) scr.sc_pin scr.sc_acc;
      run_epilogue cv.cv_ep scr.sc_acc scr.sc_out;
      Mem.write_flat_from l1 inst.i_out_dtype inst.i_out_off scr.sc_out ~pos:0
        ~len:inst.i_out_len
  | CDense dn ->
      Mem.read_flat_into l1 dn.dn_in_dtype inst.i_in_off scr.sc_pin ~pos:0
        ~len:dn.dn_c;
      dense_kernel ~dn_c:dn.dn_c ~dn_k:dn.dn_k ~wdata:dn.dn_wdata ~woff:dn.dn_woff
        scr.sc_pin scr.sc_acc;
      run_epilogue dn.dn_ep scr.sc_acc scr.sc_out;
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
      run_epilogue ad.ad_ep acc scr.sc_out;
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
  let scratch = (arena plan ~fresh:false).ar_scratch.(step_index) in
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
      exec_compute ~l1 inst scratch.(i);
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
