package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mrclone/internal/metrics"
)

// RenderTable writes an aligned two-or-more-column text table.
func RenderTable(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, n := range widths {
		total += n + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders Table II as paper-vs-measured rows.
func (r *Table2Result) WriteText(w io.Writer) error {
	return RenderTable(w, []string{"Statistic", "Paper (Table II)", "Measured"}, r.Rows())
}

// WriteText renders a sweep, one row per x.
func (r *SweepResult) WriteText(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%g", p.X),
			fmt.Sprintf("%.1f", p.Mean),
			fmt.Sprintf("%.1f", p.Weighted),
		})
	}
	return RenderTable(w, []string{r.XLabel, "Avg flowtime (s)", "Weighted avg flowtime (s)"}, rows)
}

// WriteText renders a CDF comparison with one column per algorithm.
func (r *CDFResult) WriteText(w io.Writer) error {
	names := make([]string, 0, len(r.Curves))
	for name := range r.Curves {
		names = append(names, name)
	}
	sort.Strings(names)
	header := append([]string{"flowtime<="}, names...)
	var nPoints int
	for _, c := range r.Curves {
		nPoints = len(c)
		break
	}
	rows := make([][]string, 0, nPoints)
	for i := 0; i < nPoints; i++ {
		row := make([]string, 0, len(header))
		var x float64
		for _, name := range names {
			x = r.Curves[name][i].X
		}
		row = append(row, fmt.Sprintf("%.0f", x))
		for _, name := range names {
			row = append(row, fmt.Sprintf("%.3f", r.Curves[name][i].Fraction))
		}
		rows = append(rows, row)
	}
	return RenderTable(w, header, rows)
}

// WriteText renders the Figure 6 comparison and the headline improvement.
func (r *Fig6Result) WriteText(w io.Writer) error {
	rows := make([][]string, 0, len(r.Summaries))
	for _, s := range r.Summaries {
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%.1f", s.Weighted),
			fmt.Sprintf("%.1f", s.P50),
			fmt.Sprintf("%.1f", s.P90),
		})
	}
	if err := RenderTable(w, []string{"Algorithm", "Avg flowtime (s)",
		"Weighted avg (s)", "P50 (s)", "P90 (s)"}, rows); err != nil {
		return err
	}
	mean, weighted, err := r.ImprovementOverMantri()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nSRPTMS+C vs Mantri: avg flowtime -%.1f%%, weighted avg -%.1f%% (paper: ~25%%)\n",
		mean*100, weighted*100)
	return err
}

// WriteText renders the Theorem 1 check.
func (r *Theorem1Result) WriteText(w io.Writer) error {
	rows := [][]string{
		{"deviation factor r", fmt.Sprintf("%g", r.DeviationFactor)},
		{"machines", fmt.Sprintf("%d", r.Machines)},
		{"bound checks", fmt.Sprintf("%d", r.Checks)},
		{"violations", fmt.Sprintf("%d", r.Violations)},
		{"measured hold rate", fmt.Sprintf("%.3f", r.HoldRate())},
		{"theorem floor (1+1/r^4-2/r^2)", fmt.Sprintf("%.3f", r.TheoremFloor)},
		{"zero-variance competitive ratio", fmt.Sprintf("%.3f (theorem: <= 2)", r.ZeroVarianceRatio)},
	}
	return RenderTable(w, []string{"Theorem 1 (offline bound)", "Value"}, rows)
}

// WriteText renders the Theorem 2 check.
func (r *Theorem2Result) WriteText(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.Epsilon),
			fmt.Sprintf("%.0f", p.AugmentedWeighted),
			fmt.Sprintf("%.0f", p.BaselineWeighted),
			fmt.Sprintf("%.3f", p.Ratio),
			fmt.Sprintf("%.1f", p.Ceiling),
		})
	}
	return RenderTable(w, []string{"epsilon", "SRPTMS+C @ speed 1+eps",
		"SRPT baseline @ speed 1", "ratio", "theorem ceiling"}, rows)
}

// WriteCSV emits a sweep as CSV.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s,mean_flowtime,weighted_flowtime\n", r.XLabel); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%g,%.4f,%.4f\n", p.X, p.Mean, p.Weighted); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits a CDF comparison.
func (r *CDFResult) WriteCSV(w io.Writer) error {
	names := make([]string, 0, len(r.Curves))
	for name := range r.Curves {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w, "flowtime,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	var nPoints int
	for _, c := range r.Curves {
		nPoints = len(c)
		break
	}
	for i := 0; i < nPoints; i++ {
		var x float64
		cells := make([]string, 0, len(names))
		for _, name := range names {
			pt := r.Curves[name][i]
			x = pt.X
			cells = append(cells, fmt.Sprintf("%.4f", pt.Fraction))
		}
		if _, err := fmt.Fprintf(w, "%.0f,%s\n", x, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the Figure 6 comparison.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "algorithm,mean_flowtime,weighted_flowtime,p50,p90"); err != nil {
		return err
	}
	for _, s := range r.Summaries {
		if _, err := fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f,%.4f\n",
			s.Name, s.Mean, s.Weighted, s.P50, s.P90); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIPlot renders series of (x, y) points as a crude terminal plot, one
// rune per series. It is deliberately simple: fixed 60x16 canvas, linear
// axes.
func ASCIIPlot(w io.Writer, title string, series map[string][]metrics.CDFPoint) error {
	const width, height = 60, 16
	if len(series) == 0 {
		return fmt.Errorf("experiments: empty plot %q", title)
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	marks := []rune{'*', '+', 'o', 'x', '#', '@'}

	minX, maxX := series[names[0]][0].X, series[names[0]][0].X
	var maxY float64
	for _, pts := range series {
		for _, p := range pts {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Fraction > maxY {
				maxY = p.Fraction
			}
		}
	}
	if maxX == minX || maxY == 0 {
		maxX = minX + 1
		maxY = 1
	}
	canvas := make([][]rune, height)
	for i := range canvas {
		canvas[i] = make([]rune, width)
		for j := range canvas[i] {
			canvas[i][j] = ' '
		}
	}
	for si, name := range names {
		mark := marks[si%len(marks)]
		for _, p := range series[name] {
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int(p.Fraction/maxY*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				canvas[row][col] = mark
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for _, line := range canvas {
		if _, err := fmt.Fprintf(w, "|%s\n", string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width)); err != nil {
		return err
	}
	legend := make([]string, 0, len(names))
	for si, name := range names {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], name))
	}
	_, err := fmt.Fprintf(w, " x: %.0f..%.0f  y: 0..%.2f  %s\n",
		minX, maxX, maxY, strings.Join(legend, " "))
	return err
}
