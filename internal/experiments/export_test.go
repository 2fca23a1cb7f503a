package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func sampleFigure() Figure {
	return Figure{
		ID: "t1", Title: "test figure", XLabel: "N", YLabel: "metric",
		Series: []Series{
			{Label: "Minim", X: []float64{1, 2, 3}, Y: []float64{10, 20, 30.5}, Err: []float64{0.1, 0.2, 0.3}},
			{Label: "CP", X: []float64{1, 2, 3}, Y: []float64{11, 22, 33}, Err: []float64{0.4, 0.5, 0.6}},
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	fig := sampleFigure()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 2 {
		t.Fatalf("series = %d", len(got.Series))
	}
	for si, s := range got.Series {
		want := fig.Series[si]
		if s.Label != want.Label {
			t.Fatalf("label %q != %q", s.Label, want.Label)
		}
		for i := range want.X {
			if s.X[i] != want.X[i] || s.Y[i] != want.Y[i] || s.Err[i] != want.Err[i] {
				t.Fatalf("series %d point %d mismatch", si, i)
			}
		}
	}
}

func TestCSVHeaderFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "x,Minim,Minim_ci95,CP,CP_ci95" {
		t.Fatalf("header = %q", first)
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                              // empty
		"a,b\n1,2\n",                    // bad header
		"x,Minim\n1,2\n",                // missing CI column
		"x,Minim,Nope_ci95\n1,2,3\n",    // mismatched CI label
		"x,Minim,Minim_ci95\nfoo,2,3\n", // non-numeric x
		"x,Minim,Minim_ci95\n1,bar,3\n", // non-numeric y
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("malformed CSV accepted: %q", c)
		}
	}
}

func TestWriteGnuplot(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGnuplot(&buf, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"set title \"test figure\"",
		"set xlabel \"N\"",
		"$data0 << EOD",
		"$data1 << EOD",
		"yerrorlines",
		"title \"Minim\"",
		"title \"CP\"",
		"1 10 0.1",
		"3 33 0.6",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("gnuplot output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVRealFigure(t *testing.T) {
	fig, err := ByID("12a", Config{Runs: 1, Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != len(fig.Series) {
		t.Fatalf("series %d != %d", len(got.Series), len(fig.Series))
	}
	if len(got.Series[0].X) != len(fig.Series[0].X) {
		t.Fatalf("points %d != %d", len(got.Series[0].X), len(fig.Series[0].X))
	}
}

// ReadCSV parses a figure previously written by WriteCSV. Only the
// series data is recovered (labels, X, Y, Err); figure metadata is not
// stored in the CSV.
func ReadCSV(r io.Reader) (Figure, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return Figure{}, err
	}
	if len(records) == 0 {
		return Figure{}, fmt.Errorf("experiments: empty CSV")
	}
	header := records[0]
	if len(header) < 3 || header[0] != "x" || (len(header)-1)%2 != 0 {
		return Figure{}, fmt.Errorf("experiments: malformed CSV header %v", header)
	}
	nSeries := (len(header) - 1) / 2
	fig := Figure{}
	for s := 0; s < nSeries; s++ {
		label := header[1+2*s]
		if header[2+2*s] != label+"_ci95" {
			return Figure{}, fmt.Errorf("experiments: malformed CI column for %q", label)
		}
		fig.Series = append(fig.Series, Series{Label: label})
	}
	for ri, row := range records[1:] {
		if len(row) != len(header) {
			return Figure{}, fmt.Errorf("experiments: row %d has %d fields, want %d", ri+1, len(row), len(header))
		}
		x, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: row %d x: %w", ri+1, err)
		}
		for s := 0; s < nSeries; s++ {
			y, err := strconv.ParseFloat(row[1+2*s], 64)
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: row %d series %d: %w", ri+1, s, err)
			}
			ci, err := strconv.ParseFloat(row[2+2*s], 64)
			if err != nil {
				return Figure{}, fmt.Errorf("experiments: row %d series %d ci: %w", ri+1, s, err)
			}
			fig.Series[s].X = append(fig.Series[s].X, x)
			fig.Series[s].Y = append(fig.Series[s].Y, y)
			fig.Series[s].Err = append(fig.Series[s].Err, ci)
		}
	}
	return fig, nil
}
