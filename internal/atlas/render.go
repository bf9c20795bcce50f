package atlas

// Self-contained XHTML atlas report: a crack-rate heatmap over the
// grid, per-cell statistics with objective-landscape histograms, and
// per-seed convergence sparklines. Follows the flight-log report
// discipline: well-formed XML (every tag closed, all dynamic text
// escaped) so tests can assert parseability with encoding/xml, and no
// external resources.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// maxSparklines caps the number of per-seed sparklines rendered; the
// page notes how many trails were omitted. The cap is deterministic
// (first N in artifact order), never sampled.
const maxSparklines = 48

// RenderXHTML renders the parsed artifact as a self-contained XHTML
// page.
func RenderXHTML(doc *Doc, w io.Writer) error {
	if doc == nil {
		return fmt.Errorf("atlas: nothing to render")
	}
	var b strings.Builder
	writeHead(&b, doc)
	fmt.Fprintf(&b, "<h1>Search atlas — %s</h1>\n", esc(doc.Header.Fuzzer))
	writeSummary(&b, doc)
	if len(doc.Cells) > 0 {
		b.WriteString(`<div class="section"><h2>Crack-rate heatmap</h2>` + "\n")
		b.WriteString("<p>Each cell is one (swarm size, spoof distance) configuration; darker red means a higher fraction of missions cracked.</p>\n")
		writeHeatmap(&b, doc.Cells)
		b.WriteString("</div>\n")

		b.WriteString(`<div class="section"><h2>Cell statistics</h2>` + "\n")
		writeCellTable(&b, doc.Cells)
		b.WriteString("</div>\n")
	}
	writeSparklines(&b, doc)
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHead(b *strings.Builder, doc *Doc) {
	b.WriteString("<!DOCTYPE html>\n")
	b.WriteString(`<html xmlns="http://www.w3.org/1999/xhtml" lang="en">` + "\n<head>\n")
	b.WriteString("<meta charset=\"utf-8\"></meta>\n")
	fmt.Fprintf(b, "<title>Search atlas — %s</title>\n", esc(doc.Header.Fuzzer))
	b.WriteString(`<style type="text/css">
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 70em; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 0; }
.section { border: 1px solid #ddd; border-radius: 6px; padding: 1em; margin: 1em 0; }
table { border-collapse: collapse; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f4f4f4; }
.spark { margin: 2px; vertical-align: middle; }
.sparkrow { font-size: 0.8em; color: #555; }
.note { color: #777; font-size: 0.85em; }
</style>
</head>
<body>
`)
}

func writeSummary(b *strings.Builder, doc *Doc) {
	seeds, cracked := 0, 0
	forEachMission(doc, func(m *MissionDoc) {
		seeds += len(m.Seeds)
		for _, s := range m.Seeds {
			if s.Class == ClassCracked {
				cracked++
			}
		}
	})
	b.WriteString(`<div class="section"><h2>Summary</h2>` + "\n")
	fmt.Fprintf(b, "<p>%d cell(s), %d mission(s), %d seed trail(s), %d cracked seed(s).</p>\n",
		len(doc.Cells), countMissions(doc), seeds, cracked)
	b.WriteString("</div>\n")
}

func countMissions(doc *Doc) int {
	n := len(doc.Missions)
	for _, c := range doc.Cells {
		n += len(c.Missions)
	}
	return n
}

func forEachMission(doc *Doc, f func(*MissionDoc)) {
	for _, m := range doc.Missions {
		f(m)
	}
	for _, c := range doc.Cells {
		for _, m := range c.Missions {
			f(m)
		}
	}
}

// writeHeatmap renders the n×dist crack-rate grid as an SVG.
func writeHeatmap(b *strings.Builder, cells []*CellDoc) {
	ns, dists := axes(cells)
	const cw, ch, mx, my = 72, 36, 90, 30
	width := mx + cw*len(dists) + 10
	height := my + ch*len(ns) + 10
	fmt.Fprintf(b, `<svg class="heatmap" width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">`+"\n",
		width, height, width, height)
	for j, d := range dists {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="middle">dist %s</text>`+"\n",
			mx+cw*j+cw/2, my-8, trimFloat(d))
	}
	for i, n := range ns {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="end">n=%d</text>`+"\n",
			mx-8, my+ch*i+ch/2+4, n)
	}
	for _, c := range cells {
		if c.End == nil {
			continue
		}
		i, j := indexOf(ns, c.Cell.N), indexOfF(dists, c.Cell.Dist)
		if i < 0 || j < 0 {
			continue
		}
		rate := c.End.CrackRate
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#999"><title>n=%d dist=%s: crack rate %.2f (%d/%d), mean iters to crack %.1f, stall fraction %.2f</title></rect>`+"\n",
			mx+cw*j, my+ch*i, cw, ch, rateColor(rate),
			c.Cell.N, trimFloat(c.Cell.Dist), rate, c.End.Cracked, c.End.Missions,
			c.End.MeanItersToCrack, c.End.StallFraction)
		tcol := "#222"
		if rate > 0.55 {
			tcol = "#fff"
		}
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" text-anchor="middle" fill="%s">%.0f%%</text>`+"\n",
			mx+cw*j+cw/2, my+ch*i+ch/2+4, tcol, rate*100)
	}
	b.WriteString("</svg>\n")
}

// rateColor maps a crack rate onto a white→red ramp.
func rateColor(rate float64) string {
	rate = math.Max(0, math.Min(1, rate))
	rr := 255 - int(math.Round(60*rate))
	g := 245 - int(math.Round(190*rate))
	bb := 240 - int(math.Round(195*rate))
	return fmt.Sprintf("#%02x%02x%02x", rr, g, bb)
}

func axes(cells []*CellDoc) (ns []int, dists []float64) {
	seenN := map[int]bool{}
	seenD := map[float64]bool{}
	for _, c := range cells {
		if !seenN[c.Cell.N] {
			seenN[c.Cell.N] = true
			ns = append(ns, c.Cell.N)
		}
		if !seenD[c.Cell.Dist] {
			seenD[c.Cell.Dist] = true
			dists = append(dists, c.Cell.Dist)
		}
	}
	sort.Ints(ns)
	sort.Float64s(dists)
	return ns, dists
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexOfF(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// writeCellTable renders per-cell statistics plus a compact
// objective-landscape histogram.
func writeCellTable(b *strings.Builder, cells []*CellDoc) {
	b.WriteString("<table>\n<tr><th>n</th><th>dist</th><th>missions</th><th>cracked</th><th>crack rate</th><th>mean iters/crack</th><th>stall frac</th><th>landscape</th></tr>\n")
	for _, c := range cells {
		if c.End == nil {
			continue
		}
		e := c.End
		fmt.Fprintf(b, "<tr><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.1f</td><td>%.2f</td><td>",
			e.N, trimFloat(e.Dist), e.Missions, e.Cracked, e.CrackRate, e.MeanItersToCrack, e.StallFraction)
		writeHistSpark(b, e.Hist)
		b.WriteString("</td></tr>\n")
	}
	b.WriteString("</table>\n")
	fmt.Fprintf(b, "<p class=\"note\">Landscape bars bucket every observed objective value by victim clearance; bounds (m): %s, then overflow.</p>\n",
		esc(boundsLabel()))
}

func boundsLabel() string {
	parts := make([]string, len(HistBounds))
	for i, bd := range HistBounds {
		parts[i] = trimFloat(bd)
	}
	return strings.Join(parts, ", ")
}

// writeHistSpark renders one histogram as inline SVG bars.
func writeHistSpark(b *strings.Builder, hist []int) {
	const bw, h = 7, 22
	w := bw * (len(HistBounds) + 1)
	fmt.Fprintf(b, `<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">`, w, h, w, h)
	maxC := 1
	for _, c := range hist {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range hist {
		bh := 0
		if c > 0 {
			bh = 2 + (h-4)*c/maxC
			if bh > h {
				bh = h
			}
		}
		fill := "#6a8caf"
		if i == 0 {
			fill = "#c0392b" // the ≤0 bucket: collisions
		}
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>bucket %d: %d</title></rect>`,
			i*bw, h-bh, bw-1, bh, fill, i, c)
	}
	b.WriteString("</svg>")
}

// classColor maps a seed class onto its sparkline stroke.
func classColor(class string) string {
	switch class {
	case ClassCracked:
		return "#1b7f3b"
	case ClassError:
		return "#c0392b"
	case ClassStalled:
		return "#d98c00"
	case ClassOscillating:
		return "#8e44ad"
	case ClassDiverged:
		return "#b03a5b"
	default:
		return "#888"
	}
}

// writeSparklines renders per-seed convergence trails, capped at
// maxSparklines in artifact order.
func writeSparklines(b *strings.Builder, doc *Doc) {
	total, drawn := 0, 0
	b.WriteString(`<div class="section"><h2>Convergence trails</h2>` + "\n")
	b.WriteString("<p>One sparkline per seed search: the objective (victim clearance) over iterations — a trail dipping to the baseline cracked. Colors: <span style=\"color:#1b7f3b\">cracked</span>, <span style=\"color:#d98c00\">stalled</span>, <span style=\"color:#8e44ad\">oscillating</span>, <span style=\"color:#b03a5b\">diverged</span>, <span style=\"color:#c0392b\">error</span>, <span style=\"color:#888\">exhausted</span>.</p>\n")
	forEachMission(doc, func(m *MissionDoc) {
		for _, s := range m.Seeds {
			total++
			if len(s.Trail) == 0 || drawn >= maxSparklines {
				continue
			}
			drawn++
			fmt.Fprintf(b, `<span class="sparkrow">seed %d: T%d→V%d %s (%s, %d iters) `,
				m.Mission.Seed, s.Target, s.Victim, esc(s.Direction), esc(s.Class), s.Iters)
			writeTrailSpark(b, s)
			b.WriteString("</span>\n")
		}
	})
	if drawn < total {
		fmt.Fprintf(b, "<p class=\"note\">Showing the first %d of %d seed trails (artifact order).</p>\n", drawn, total)
	}
	if total == 0 {
		b.WriteString("<p class=\"note\">No seed trails recorded.</p>\n")
	}
	b.WriteString("</div>\n")
}

// writeTrailSpark renders one seed trail as an inline polyline.
func writeTrailSpark(b *strings.Builder, s SeedRecord) {
	const w, h = 120, 30
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range s.Trail {
		lo = math.Min(lo, p.Value)
		hi = math.Max(hi, p.Value)
	}
	if hi <= lo {
		hi = lo + 1
	}
	var pts []string
	n := len(s.Trail)
	for i, p := range s.Trail {
		x := 2.0
		if n > 1 {
			x = 2 + float64(i)*(w-4)/float64(n-1)
		}
		y := 2 + (h-4)*(hi-p.Value)/(hi-lo)
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	fmt.Fprintf(b, `<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">`, w, h, w, h)
	fmt.Fprintf(b, `<line x1="0" y1="%d" x2="%d" y2="%d" stroke="#ddd" stroke-width="1"></line>`, h-2, w, h-2)
	fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"><title>best %.3f over %d iterates</title></polyline>`,
		strings.Join(pts, " "), classColor(s.Class), s.Best, len(s.Trail))
	b.WriteString("</svg>")
}

// trimFloat renders a float the way %g does — no trailing zeros — so
// labels match the JSONL encoding of the same value.
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// esc escapes text for XML content and attribute positions.
var esc = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
).Replace
