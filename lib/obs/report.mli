(** Building blocks for self-contained HTML reports: a page scaffold with
    embedded CSS (light/dark via [prefers-color-scheme]), data tables, and
    inline-SVG charts. No scripts and no external resources — the output
    is one file that renders offline.

    Chart conventions: a fixed categorical hue order (series beyond
    the fifth wrap — callers should fold long tails into "other"
    first), one y-axis per chart, a legend whenever a chart has two or
    more series, and a table next to every chart so no information is
    color-alone. *)

val table : header:string list -> rows:string list list -> string

val grouped_bars :
  ?refline:float -> ?y_label:string -> categories:string list ->
  series:(string * float list) list -> unit -> string
(** Vertical grouped bars: one group per category, one bar per series
    (series values are indexed by category position). [refline] draws a
    dashed horizontal line (e.g. speedup = 1.0). Includes the legend. *)

val line_chart :
  ?y_label:string -> ?x_label:string ->
  series:(string * (float * float) list) list -> unit -> string
(** Lines with ringed markers over a linear x/y; x tick labels are taken
    from the first series' points. Includes the legend. *)

val dot_plot_log : ?x_label:string -> rows:(string * float) list -> unit -> string
(** Horizontal dot plot on a log x axis with decade gridlines — the right
    form for throughputs spanning orders of magnitude (log-scale bar
    lengths would be meaningless). Non-positive values are dropped. *)

val diverging_bars :
  ?pos_label:string -> ?neg_label:string -> rows:(string * float) list ->
  unit -> string
(** Horizontal bars around a zero axis: positive values (regressions)
    to the right in the "worse" color, negative to the left in the
    "better" color, each end-labeled with its signed value. *)

val interval_rows :
  ?x_label:string -> total:float -> rows:(string * (float * float) list) list ->
  unit -> string
(** Horizontal interval waterfall on a shared [0, total] axis — one row
    per label, one rounded bar per (start, stop) interval. Used for the
    pipeline observatory's stage-occupancy timelines. Empty string for no
    rows or a non-positive total. *)

val section : title:string -> ?intro:string -> string list -> string
(** A titled report section wrapping pre-rendered body parts. *)

val page : title:string -> subtitle:string -> string list -> string
(** The full HTML document. *)
