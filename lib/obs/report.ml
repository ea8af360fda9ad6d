(* Self-contained HTML report primitives: page scaffold, tables, and
   inline-SVG charts (grouped bars, lines, log-axis dot plot, diverging
   bars). No scripts, no external resources — a single file that renders
   offline and in CI artifact viewers.

   Styling follows the chart conventions: a fixed categorical hue order
   (never cycled), one y-axis per chart, thin marks with a small gap,
   recessive gridlines, a legend whenever a chart has two or more series,
   and a data table accompanying every chart so nothing is color-alone.
   Light and dark palettes are separate steps of the same hues, switched
   with [prefers-color-scheme]; SVG marks reference the CSS custom
   properties so they follow the switch. *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_num = Analytics.fmt_num

(* Categorical slots in fixed order; charts index into this and never
   generate hues. More than [max_series] series is a design error here —
   callers fold the tail into "other" before charting. *)
let max_series = 5

let series_var i = Printf.sprintf "var(--c%d)" ((i mod max_series) + 1)

let style =
  {|:root {
  --surface: #fcfcfb; --ink: #383835; --muted: #898781; --grid: #e1e0d9;
  --c1: #2a78d6; --c2: #eb6834; --c3: #1baf7a; --c4: #eda100; --c5: #e87ba4;
  --worse: #c94f4f; --better: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #f0efec; --muted: #898781; --grid: #2c2c2a;
    --c1: #3987e5; --c2: #d95926; --c3: #199e70; --c4: #c98500; --c5: #d55181;
    --worse: #e06c6c; --better: #3987e5;
  }
}
body { background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
  padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.5rem; }
p.sub, p.intro { color: var(--muted); }
svg { display: block; margin: 1rem 0; }
svg text { font-family: inherit; font-size: 11px; fill: var(--muted); }
svg text.val { fill: var(--ink); }
table { border-collapse: collapse; margin: 1rem 0; font-variant-numeric: tabular-nums; }
th, td { padding: 0.25rem 0.75rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--muted); font-weight: 600; border-bottom: 1px solid var(--grid); }
tr + tr td { border-top: 1px solid var(--grid); }
.legend { display: flex; gap: 1.25rem; flex-wrap: wrap; margin: 0.5rem 0; }
.legend span { display: inline-flex; align-items: center; gap: 0.4rem; }
.legend i { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
|}

let legend series =
  if List.length series < 2 then ""
  else
    let items =
      List.mapi
        (fun i name ->
          Printf.sprintf "<span><i style=\"background:%s\"></i>%s</span>"
            (series_var i) (html_escape name))
        series
    in
    "<div class=\"legend\">" ^ String.concat "" items ^ "</div>"

let table ~header ~rows =
  let cells tag cs =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "<%s>%s</%s>" tag (html_escape c) tag) cs)
  in
  let body =
    String.concat "\n"
      (List.map (fun r -> "<tr>" ^ cells "td" r ^ "</tr>") rows)
  in
  Printf.sprintf "<table><thead><tr>%s</tr></thead><tbody>\n%s\n</tbody></table>"
    (cells "th" header) body

(* --- shared chart geometry --- *)

let chart_w = 640.0
let chart_h = 260.0
let margin_l = 55.0
let margin_r = 12.0
let margin_t = 12.0
let margin_b = 34.0
let plot_w = chart_w -. margin_l -. margin_r
let plot_h = chart_h -. margin_t -. margin_b

(* Round a positive maximum up to 1/2/5 × 10^k so tick values are clean. *)
let nice_max v =
  if v <= 0.0 then 1.0
  else
    let mag = 10.0 ** Float.floor (Float.log10 v) in
    let n = v /. mag in
    mag *. (if n <= 1.0 then 1.0 else if n <= 2.0 then 2.0 else if n <= 5.0 then 5.0 else 10.0)

let svg_open ?(h = chart_h) () =
  Printf.sprintf
    "<svg viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\" role=\"img\">"
    chart_w h chart_w h

(* Horizontal gridline + tick label at value [v] of a linear y scale. *)
let y_grid ~y_max v =
  let y = margin_t +. plot_h *. (1.0 -. (v /. y_max)) in
  Printf.sprintf
    "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" stroke=\"var(--grid)\"/>\n\
     <text x=\"%g\" y=\"%g\" text-anchor=\"end\">%s</text>"
    margin_l y (chart_w -. margin_r) y (margin_l -. 6.0) (y +. 4.0)
    (fmt_num v)

(* A vertical bar with only the top corners rounded, anchored flat on the
   baseline. *)
let bar ~x ~w ~y ~h ~fill =
  if h <= 0.0 then ""
  else
    let r = Float.min 3.0 (Float.min (w /. 2.0) h) in
    Printf.sprintf
      "<path d=\"M%g %g L%g %g Q%g %g %g %g L%g %g Q%g %g %g %g L%g %g Z\" \
       fill=\"%s\"/>"
      x (y +. h) x (y +. r) x y (x +. r) y
      (x +. w -. r) y (x +. w) y (x +. w) (y +. r)
      (x +. w) (y +. h) fill

(* --- grouped bar chart --- *)

let grouped_bars ?refline ?(y_label = "") ~categories ~series () =
  let n_cat = List.length categories in
  let n_ser = List.length series in
  if n_cat = 0 || n_ser = 0 then ""
  else begin
    let all = List.concat_map snd series in
    let y_max =
      nice_max
        (List.fold_left Float.max
           (Option.value ~default:0.0 refline)
           all)
    in
    let buf = Buffer.create 4096 in
    let out s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
    out (svg_open ());
    List.iter (fun k -> out (y_grid ~y_max (y_max *. float_of_int k /. 4.0)))
      [ 0; 1; 2; 3; 4 ];
    if y_label <> "" then
      out
        (Printf.sprintf
           "<text x=\"%g\" y=\"%g\" transform=\"rotate(-90 12 %g)\" \
            text-anchor=\"middle\">%s</text>"
           12.0 (margin_t +. (plot_h /. 2.0)) (margin_t +. (plot_h /. 2.0))
           (html_escape y_label));
    let group_w = plot_w /. float_of_int n_cat in
    let pad = Float.min 12.0 (group_w *. 0.15) in
    let bar_w = (group_w -. (2.0 *. pad)) /. float_of_int n_ser in
    List.iteri
      (fun ci cat ->
        let gx = margin_l +. (group_w *. float_of_int ci) in
        out
          (Printf.sprintf
             "<text x=\"%g\" y=\"%g\" text-anchor=\"middle\">%s</text>"
             (gx +. (group_w /. 2.0)) (chart_h -. 10.0) (html_escape cat));
        List.iteri
          (fun si (_, values) ->
            match List.nth_opt values ci with
            | None -> ()
            | Some v ->
              let h = plot_h *. (Float.max 0.0 v /. y_max) in
              (* 2px gap between adjacent bars *)
              out
                (bar
                   ~x:(gx +. pad +. (bar_w *. float_of_int si) +. 1.0)
                   ~w:(Float.max 1.0 (bar_w -. 2.0))
                   ~y:(margin_t +. plot_h -. h) ~h ~fill:(series_var si)))
          series)
      categories;
    (match refline with
     | None -> ()
     | Some v ->
       let y = margin_t +. plot_h *. (1.0 -. (v /. y_max)) in
       out
         (Printf.sprintf
            "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" \
             stroke=\"var(--muted)\" stroke-dasharray=\"4 3\"/>"
            margin_l y (chart_w -. margin_r) y));
    out "</svg>";
    legend (List.map fst series) ^ Buffer.contents buf
  end

(* --- line chart (linear x and y) --- *)

let line_chart ?(y_label = "") ?(x_label = "") ~series () =
  let pts = List.concat_map snd series in
  if pts = [] then ""
  else begin
    let xs = List.map fst pts and ys = List.map snd pts in
    let x_min = List.fold_left Float.min infinity xs in
    let x_max = List.fold_left Float.max neg_infinity xs in
    let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
    let y_max = nice_max (List.fold_left Float.max 0.0 ys) in
    let sx x = margin_l +. (plot_w *. ((x -. x_min) /. x_span)) in
    let sy y = margin_t +. (plot_h *. (1.0 -. (y /. y_max))) in
    let buf = Buffer.create 4096 in
    let out s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
    out (svg_open ());
    List.iter (fun k -> out (y_grid ~y_max (y_max *. float_of_int k /. 4.0)))
      [ 0; 1; 2; 3; 4 ];
    if y_label <> "" then
      out
        (Printf.sprintf
           "<text x=\"12\" y=\"%g\" transform=\"rotate(-90 12 %g)\" \
            text-anchor=\"middle\">%s</text>"
           (margin_t +. (plot_h /. 2.0)) (margin_t +. (plot_h /. 2.0))
           (html_escape y_label));
    if x_label <> "" then
      out
        (Printf.sprintf
           "<text x=\"%g\" y=\"%g\" text-anchor=\"middle\">%s</text>"
           (margin_l +. (plot_w /. 2.0)) (chart_h -. 8.0) (html_escape x_label));
    (* x tick labels at each distinct x of the first series *)
    (match series with
     | (_, first) :: _ ->
       List.iter
         (fun (x, _) ->
           out
             (Printf.sprintf
                "<text x=\"%g\" y=\"%g\" text-anchor=\"middle\">%s</text>"
                (sx x) (chart_h -. 20.0) (fmt_num x)))
         first
     | [] -> ());
    List.iteri
      (fun si (_, points) ->
        let points = List.sort (fun (a, _) (b, _) -> compare a b) points in
        let path =
          String.concat " "
            (List.mapi
               (fun i (x, y) ->
                 Printf.sprintf "%s%g %g" (if i = 0 then "M" else "L") (sx x)
                   (sy y))
               points)
        in
        out
          (Printf.sprintf
             "<path d=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\" \
              stroke-linejoin=\"round\"/>"
             path (series_var si));
        (* markers with a surface ring so crossings stay readable *)
        List.iter
          (fun (x, y) ->
            out
              (Printf.sprintf
                 "<circle cx=\"%g\" cy=\"%g\" r=\"4\" fill=\"%s\" \
                  stroke=\"var(--surface)\" stroke-width=\"2\"/>"
                 (sx x) (sy y) (series_var si)))
          points)
      series;
    out "</svg>";
    legend (List.map fst series) ^ Buffer.contents buf
  end

(* --- horizontal dot plot on a log x axis --- *)

let dot_plot_log ?(x_label = "") ~rows () =
  let rows = List.filter (fun (_, v) -> v > 0.0) rows in
  if rows = [] then ""
  else begin
    let vs = List.map snd rows in
    let lo = Float.floor (Float.log10 (List.fold_left Float.min infinity vs)) in
    let hi = Float.ceil (Float.log10 (List.fold_left Float.max neg_infinity vs)) in
    let hi = if hi <= lo then lo +. 1.0 else hi in
    let row_h = 26.0 in
    let label_w = 170.0 in
    let h =
      margin_t +. (row_h *. float_of_int (List.length rows)) +. margin_b
    in
    let px = chart_w -. label_w -. margin_r in
    let sx v = label_w +. (px *. ((Float.log10 v -. lo) /. (hi -. lo))) in
    let buf = Buffer.create 4096 in
    let out s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
    out (svg_open ~h ());
    (* decade gridlines *)
    let d = ref lo in
    while !d <= hi do
      let x = sx (10.0 ** !d) in
      out
        (Printf.sprintf
           "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" \
            stroke=\"var(--grid)\"/>\n\
            <text x=\"%g\" y=\"%g\" text-anchor=\"middle\">1e%d</text>"
           x margin_t x (h -. margin_b) x (h -. margin_b +. 16.0)
           (int_of_float !d));
      d := !d +. 1.0
    done;
    if x_label <> "" then
      out
        (Printf.sprintf
           "<text x=\"%g\" y=\"%g\" text-anchor=\"middle\">%s</text>"
           (label_w +. (px /. 2.0)) (h -. 6.0) (html_escape x_label));
    List.iteri
      (fun i (name, v) ->
        let y = margin_t +. (row_h *. (float_of_int i +. 0.5)) in
        out
          (Printf.sprintf
             "<text x=\"%g\" y=\"%g\" text-anchor=\"end\">%s</text>"
             (label_w -. 8.0) (y +. 4.0) (html_escape name));
        out
          (Printf.sprintf
             "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" \
              stroke=\"var(--grid)\"/>"
             label_w y (sx v) y);
        out
          (Printf.sprintf
             "<circle cx=\"%g\" cy=\"%g\" r=\"5\" fill=\"var(--c1)\" \
              stroke=\"var(--surface)\" stroke-width=\"2\"/>"
             (sx v) y))
      rows;
    out "</svg>";
    Buffer.contents buf
  end

(* --- diverging horizontal bars (deltas around zero) --- *)

let diverging_bars ?(pos_label = "more") ?(neg_label = "less") ~rows () =
  if rows = [] then ""
  else begin
    let span =
      nice_max
        (List.fold_left (fun m (_, v) -> Float.max m (Float.abs v)) 0.0 rows)
    in
    let row_h = 26.0 in
    let label_w = 150.0 in
    let h =
      margin_t +. (row_h *. float_of_int (List.length rows)) +. margin_b
    in
    let px = chart_w -. label_w -. margin_r in
    let x0 = label_w +. (px /. 2.0) in
    let sx v = x0 +. (px /. 2.0 *. (v /. span)) in
    let buf = Buffer.create 4096 in
    let out s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
    out (svg_open ~h ());
    out
      (Printf.sprintf
         "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" \
          stroke=\"var(--muted)\"/>"
         x0 margin_t x0 (h -. margin_b));
    out
      (Printf.sprintf
         "<text x=\"%g\" y=\"%g\" text-anchor=\"middle\">0</text>\n\
          <text x=\"%g\" y=\"%g\" text-anchor=\"start\">%s</text>\n\
          <text x=\"%g\" y=\"%g\" text-anchor=\"end\">%s</text>"
         x0 (h -. margin_b +. 16.0)
         (x0 +. 12.0) (h -. 6.0) (html_escape ("\xe2\x86\x92 " ^ pos_label))
         (x0 -. 12.0) (h -. 6.0) (html_escape (neg_label ^ " \xe2\x86\x90")));
    List.iteri
      (fun i (name, v) ->
        let y = margin_t +. (row_h *. float_of_int i) +. 5.0 in
        let bh = row_h -. 10.0 in
        out
          (Printf.sprintf
             "<text x=\"%g\" y=\"%g\" text-anchor=\"end\">%s</text>"
             (label_w -. 8.0) (y +. (bh /. 2.0) +. 4.0) (html_escape name));
        let x = Float.min x0 (sx v) and w = Float.abs (sx v -. x0) in
        if w > 0.0 then
          out
            (Printf.sprintf
               "<rect x=\"%g\" y=\"%g\" width=\"%g\" height=\"%g\" rx=\"3\" \
                fill=\"%s\"/>"
               x y w bh
               (if v > 0.0 then "var(--worse)" else "var(--better)"));
        out
          (Printf.sprintf
             "<text class=\"val\" x=\"%g\" y=\"%g\" text-anchor=\"%s\">%s</text>"
             (if v >= 0.0 then sx v +. 6.0 else sx v -. 6.0)
             (y +. (bh /. 2.0) +. 4.0)
             (if v >= 0.0 then "start" else "end")
             (Analytics.fmt_signed v)))
      rows;
    out "</svg>";
    Buffer.contents buf
  end

(* --- interval waterfall (horizontal occupancy timelines) --- *)

let interval_rows ?(x_label = "") ~total ~rows () =
  if rows = [] || total <= 0.0 then ""
  else begin
    let row_h = 26.0 in
    let label_w = 170.0 in
    let h =
      margin_t +. (row_h *. float_of_int (List.length rows)) +. margin_b
    in
    let px = chart_w -. label_w -. margin_r in
    let sx v = label_w +. (px *. (Float.max 0.0 (Float.min total v) /. total)) in
    let buf = Buffer.create 4096 in
    let out s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
    out (svg_open ~h ());
    (* quarter gridlines with cycle labels *)
    for q = 0 to 4 do
      let v = total *. float_of_int q /. 4.0 in
      let x = sx v in
      out
        (Printf.sprintf
           "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" \
            stroke=\"var(--grid)\"/>\n\
            <text x=\"%g\" y=\"%g\" text-anchor=\"middle\">%s</text>"
           x margin_t x (h -. margin_b) x (h -. margin_b +. 16.0)
           (Analytics.fmt_num v))
    done;
    if x_label <> "" then
      out
        (Printf.sprintf
           "<text x=\"%g\" y=\"%g\" text-anchor=\"middle\">%s</text>"
           (label_w +. (px /. 2.0)) (h -. 6.0) (html_escape x_label));
    List.iteri
      (fun i (name, intervals) ->
        let y = margin_t +. (row_h *. float_of_int i) +. 5.0 in
        let bh = row_h -. 10.0 in
        out
          (Printf.sprintf
             "<text x=\"%g\" y=\"%g\" text-anchor=\"end\">%s</text>"
             (label_w -. 8.0) (y +. (bh /. 2.0) +. 4.0) (html_escape name));
        out
          (Printf.sprintf
             "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" \
              stroke=\"var(--grid)\"/>"
             label_w (y +. (bh /. 2.0)) (sx total) (y +. (bh /. 2.0)));
        List.iter
          (fun (s, e) ->
            let x = sx s and w = sx e -. sx s in
            if w > 0.0 then
              out
                (Printf.sprintf
                   "<rect x=\"%g\" y=\"%g\" width=\"%g\" height=\"%g\" \
                    rx=\"2\" fill=\"%s\"/>"
                   x y w bh (series_var i)))
          intervals)
      rows;
    out "</svg>";
    Buffer.contents buf
  end

(* --- page assembly --- *)

let section ~title ?(intro = "") body_parts =
  Printf.sprintf "<h2>%s</h2>\n%s%s" (html_escape title)
    (if intro = "" then ""
     else Printf.sprintf "<p class=\"intro\">%s</p>\n" (html_escape intro))
    (String.concat "\n" body_parts)

let page ~title ~subtitle sections =
  Printf.sprintf
    {|<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>%s</title>
<style>
%s</style>
</head>
<body>
<h1>%s</h1>
<p class="sub">%s</p>
%s
</body>
</html>
|}
    (html_escape title) style (html_escape title) (html_escape subtitle)
    (String.concat "\n" sections)
