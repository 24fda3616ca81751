type vehicle = { cx : float; cy : float; scale : float; visible : bool }

type params = {
  width : int;
  height : int;
  nvehicles : int;
  seed : int;
  noise : float;
  occlusion_period : int;
}

let default_params =
  {
    width = 512;
    height = 512;
    nvehicles = 2;
    seed = 42;
    noise = 3.0;
    occlusion_period = 0;
  }

(* Trajectories are smooth closed-form functions of time so that any frame can
   be rendered without simulating the previous ones. Each vehicle weaves
   laterally (lane changes) and breathes in scale (distance changes). *)
let vehicles_at p t =
  let ft = float_of_int t in
  List.init (max 1 (min 3 p.nvehicles)) (fun i ->
      let fi = float_of_int i in
      let phase = fi *. 2.1 in
      let base_x = float_of_int p.width *. (0.3 +. (0.2 *. fi)) in
      let cx = base_x +. (float_of_int p.width *. 0.08 *. sin ((ft /. 40.0) +. phase)) in
      let cy =
        (float_of_int p.height *. (0.45 +. (0.08 *. fi)))
        +. (float_of_int p.height *. 0.03 *. cos ((ft /. 55.0) +. phase))
      in
      let scale = 0.8 +. (0.25 *. sin ((ft /. 70.0) +. (1.3 *. phase))) in
      let visible =
        if i = 0 && p.occlusion_period > 0 then
          t mod p.occlusion_period >= 4 (* hidden for 4 frames per period *)
        else true
      in
      { cx; cy; scale; visible })

let mark_centers v =
  if not v.visible then []
  else
    let s = v.scale in
    (* Two marks on top corners, one at the back centre (paper Fig. 3). *)
    [
      (v.cx -. (22.0 *. s), v.cy -. (16.0 *. s));
      (v.cx +. (22.0 *. s), v.cy -. (16.0 *. s));
      (v.cx, v.cy +. (14.0 *. s));
    ]

let mark_radius v = max 2 (int_of_float (4.5 *. v.scale))

(* The kernels below write [img.data] directly: a frame is rendered for every
   tracking input, and a bounds check and clamp per pixel cost more than the
   pixel. Every value written is already in [0, 255]. *)

let draw_disc (img : Image.t) cx cy r v =
  let x0 = int_of_float cx - r and y0 = int_of_float cy - r in
  let r2 = float_of_int (r * r) and c = Char.unsafe_chr v in
  for y = Int.max 0 y0 to Int.min (img.height - 1) (y0 + (2 * r)) do
    let dy = float_of_int y -. cy and row = y * img.width in
    for x = Int.max 0 x0 to Int.min (img.width - 1) (x0 + (2 * r)) do
      let dx = float_of_int x -. cx in
      if (dx *. dx) +. (dy *. dy) <= r2 then Bytes.unsafe_set img.data (row + x) c
    done
  done

(* One clipped [Bytes.fill] per row of the rectangle [x0, x0 + w) x [y0, y0 + h). *)
let draw_rect (img : Image.t) x0 y0 w h v =
  let xl = Int.max 0 x0 and xr = Int.min img.width (x0 + w) in
  if xr > xl then
    for y = Int.max 0 y0 to Int.min img.height (y0 + h) - 1 do
      Bytes.fill img.data ((y * img.width) + xl) (xr - xl) (Char.unsafe_chr v)
    done

let render_background p (img : Image.t) t =
  (* Vertical luminance gradient (sky to road) plus a faint texture that
     depends deterministically on position and frame:
     [base + ((x * 7 + y * 13 + t * 3) mod 11)], in 50..110. Along a row the
     residue is carried forward (add 7, subtract 11 on wrap) instead of
     divided out per pixel; a row whose texture sum starts negative (only
     for negative frame indices) keeps the per-pixel [mod], whose sign
     follows the sum's. *)
  let w = p.width and h = p.height and data = img.data in
  for y = 0 to h - 1 do
    let base = 60 + (40 * y / h) and row = y * w and c = (y * 13) + (t * 3) in
    if c >= 0 then begin
      let r = ref (c mod 11) in
      for x = 0 to w - 1 do
        Bytes.unsafe_set data (row + x) (Char.unsafe_chr (base + !r));
        r := if !r >= 4 then !r - 4 else !r + 7
      done
    end
    else
      for x = 0 to w - 1 do
        Bytes.unsafe_set data (row + x) (Char.unsafe_chr (base + (((x * 7) + c) mod 11)))
      done
  done

let render_vehicle img v =
  if v.visible then begin
    let s = v.scale in
    let bw = int_of_float (60.0 *. s) and bh = int_of_float (44.0 *. s) in
    (* Dark body rectangle, slightly darker roof band. *)
    draw_rect img
      (int_of_float v.cx - (bw / 2))
      (int_of_float v.cy - (bh / 2))
      bw bh 35;
    draw_rect img
      (int_of_float v.cx - (bw / 2))
      (int_of_float v.cy - (bh / 2))
      bw (bh / 4) 25;
    List.iter (fun (mx, my) -> draw_disc img mx my (mark_radius v) 250) (mark_centers v)
  end

let add_noise p (img : Image.t) t =
  if p.noise > 0.0 then begin
    let rng = Support.Prng.create (p.seed + (t * 7919)) in
    let w = img.width and h = img.height and data = img.data in
    (* Perturb a pseudo-random 20% of pixels; keeps marks distinguishable
       while still exercising threshold robustness. *)
    for _ = 1 to w * h / 5 do
      let x = Support.Prng.int rng w in
      let y = Support.Prng.int rng h in
      let d = int_of_float (p.noise *. Support.Prng.gaussian rng) in
      let i = (y * w) + x in
      let v = Char.code (Bytes.unsafe_get data i) in
      let s = v + d in
      (* Never push background pixels into mark range nor marks below it;
         int-only comparisons, as [Stdlib.min]/[max] would compare
         polymorphically. *)
      let v' =
        if v >= 220 then if s < 220 then 220 else if s > 255 then 255 else s
        else if s < 0 then 0
        else if s > 179 then 179
        else s
      in
      Bytes.unsafe_set data i (Char.unsafe_chr v')
    done
  end

let frame p t =
  let img = Image.create p.width p.height in
  render_background p img t;
  List.iter (render_vehicle img) (vehicles_at p t);
  add_noise p img t;
  img

let road_frame ?(curvature = 0.0005) ~width ~height t =
  let img = Image.create width height in
  (* Asphalt with mild texture, [50 + ((x * 3 + y * 5) mod 9)], the residue
     carried along each row as in [render_background]. *)
  for y = 0 to height - 1 do
    let r = ref (y * 5 mod 9) and row = y * width in
    for x = 0 to width - 1 do
      Bytes.unsafe_set img.data (row + x) (Char.unsafe_chr (50 + !r));
      r := if !r >= 6 then !r - 6 else !r + 3
    done
  done;
  (* Perspective road: lines converge towards a vanishing point that drifts
     with the curvature phase. *)
  let vanish_x =
    (float_of_int width /. 2.0)
    +. (float_of_int width *. 0.25 *. sin (curvature *. float_of_int (t * t)))
  in
  let horizon = height / 3 in
  let line_at frac y =
    (* x position of a road line at row y, interpolating bottom -> vanish. *)
    let fy = float_of_int (y - horizon) /. float_of_int (height - horizon) in
    let bottom_x = float_of_int width *. frac in
    vanish_x +. ((bottom_x -. vanish_x) *. fy)
  in
  for y = horizon to height - 1 do
    let thickness = 1 + ((y - horizon) * 4 / (height - horizon)) in
    let draw frac dashed =
      let x = int_of_float (line_at frac y) in
      let on = (not dashed) || (y + (t * 5)) mod 24 < 14 in
      if on then draw_rect img (x - thickness) y ((2 * thickness) + 1) 1 245
    in
    draw 0.12 false;
    draw 0.88 false;
    draw 0.5 true
  done;
  img

let ground_truth_marks p t = List.concat_map mark_centers (vehicles_at p t)
