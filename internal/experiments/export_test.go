package experiments

import (
	"bytes"
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
