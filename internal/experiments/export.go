package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV emits a figure as CSV: header "x,<label>,<label>_ci95,...",
// one row per x value. The tests parse it back to check the round trip.
func WriteCSV(w io.Writer, fig Figure) error {
	cw := csv.NewWriter(w)
	header := []string{"x"}
	for _, s := range fig.Series {
		header = append(header, s.Label, s.Label+"_ci95")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(fig.Series) > 0 {
		for i, x := range fig.Series[0].X {
			row := []string{formatFloat(x)}
			for _, s := range fig.Series {
				row = append(row, formatFloat(s.Y[i]), formatFloat(s.Err[i]))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteGnuplot emits a self-contained gnuplot script (data inlined via
// heredoc) that renders the figure with error bars, mirroring the
// paper's plot style.
func WriteGnuplot(w io.Writer, fig Figure) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure %s — %s\n", fig.ID, fig.Title)
	fmt.Fprintf(&b, "set title %q\n", fig.Title)
	fmt.Fprintf(&b, "set xlabel %q\n", fig.XLabel)
	fmt.Fprintf(&b, "set ylabel %q\n", fig.YLabel)
	fmt.Fprintf(&b, "set key top left\nset grid\n")
	var plots []string
	for i, s := range fig.Series {
		plots = append(plots, fmt.Sprintf("$data%d with yerrorlines title %q", i, s.Label))
	}
	for i, s := range fig.Series {
		fmt.Fprintf(&b, "$data%d << EOD\n", i)
		for j := range s.X {
			fmt.Fprintf(&b, "%s %s %s\n", formatFloat(s.X[j]), formatFloat(s.Y[j]), formatFloat(s.Err[j]))
		}
		fmt.Fprintf(&b, "EOD\n")
	}
	fmt.Fprintf(&b, "plot %s\n", strings.Join(plots, ", \\\n     "))
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 10, 64)
}
