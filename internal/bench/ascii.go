package bench

import (
	"fmt"
	"strings"
)

// ASCII renders the table as a terminal chart: one row per curve, bars
// scaled to the series maximum at the final x value, plus the full
// series inline. It is a quick visual for spotting the paper's shapes
// (who wins, where curves cross) without leaving the terminal.
func (t Table) ASCII() string {
	const barWidth = 40
	var b strings.Builder
	fmt.Fprintf(&b, "figure %s — %s\n", t.Figure.ID, t.Figure.Caption)
	fmt.Fprintf(&b, "%s: %v   metric: %s (bar = last point)\n", t.Figure.axis(), t.Xs, t.Figure.Metric)

	maxVal := 0.0
	for _, c := range t.Figure.Curves {
		series := t.Series[c.Label]
		if len(series) == 0 {
			continue
		}
		if v := series[len(series)-1]; v > maxVal {
			maxVal = v
		}
	}
	for _, c := range t.Figure.Curves {
		series := t.Series[c.Label]
		if len(series) == 0 {
			continue
		}
		last := series[len(series)-1]
		n := 0
		if maxVal > 0 {
			n = int(last / maxVal * barWidth)
		}
		if n > barWidth {
			n = barWidth
		}
		vals := make([]string, len(series))
		for i, v := range series {
			vals[i] = fmt.Sprintf("%.3g", v)
		}
		fmt.Fprintf(&b, "%-20s %-*s %s\n", c.Label,
			barWidth+1, strings.Repeat("█", n), strings.Join(vals, " "))
	}
	return b.String()
}
