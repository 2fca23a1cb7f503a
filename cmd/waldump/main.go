// Command waldump decodes a session WAL — a segment directory or a
// single segment file of binary frames — and prints every committed
// record as one JSON object per line (NDJSON) on stdout: the
// human-readable debug export of the log, for grep and jq. Torn
// trailing bytes are reported on stderr and excluded, exactly as
// recovery would treat them.
//
// -stats prints per-segment statistics instead of records: counts by
// record type (events by kind, snapshots, barriers), byte totals, the
// committed sequence range, and the position of every snapshot and
// barrier — the question "where would recovery start, and how much log
// follows it" answered without dumping a single event.
//
// Usage: waldump [-stats] <session.wal directory | segment file> [...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

func main() {
	stats := flag.Bool("stats", false, "per-segment statistics instead of the NDJSON dump")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: waldump [-stats] <session.wal directory | segment file> [...]")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		var err error
		if *stats {
			err = statsPath(os.Stdout, path)
		} else {
			err = dumpPath(os.Stdout, os.Stderr, path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "waldump: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpPath dumps a WAL directory (all segments in numeric order) or a
// single segment file.
func dumpPath(w, diag io.Writer, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return dumpFile(w, diag, path)
	}
	segs, err := segmentFiles(path)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("%s holds no segment files", path)
	}
	for _, p := range segs {
		if err := dumpFile(w, diag, p); err != nil {
			return err
		}
	}
	return nil
}

// segmentFiles lists a WAL directory's segment files in segment-number
// order (the append order of the log).
func segmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type seg struct {
		n    int
		path string
	}
	var segs []seg
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, seg{n, filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out, nil
}

// dumpFile streams one segment's committed records to w as NDJSON,
// reporting torn trailing bytes on diag.
func dumpFile(w, diag io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	sc := trace.NewRecordScanner(f)
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := writeRecord(w, rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if torn := fi.Size() - sc.Committed(); torn > 0 {
		fmt.Fprintf(diag, "waldump: %s: %d torn trailing bytes ignored\n", path, torn)
	}
	return nil
}

// walRecord is one NDJSON export line: exactly one of Snap, Ev, or Bar
// is set.
type walRecord struct {
	Snap *trace.Snapshot    `json:"snap,omitempty"`
	Ev   *trace.EventRecord `json:"ev,omitempty"`
	Bar  *trace.Barrier     `json:"barrier,omitempty"`
}

// writeRecord writes one decoded record to w as an NDJSON line.
func writeRecord(w io.Writer, rec trace.Record) error {
	line := walRecord{Snap: rec.Snap, Bar: rec.Barrier}
	if rec.Ev != nil {
		ej, err := trace.EncodeEvent(*rec.Ev)
		if err != nil {
			return err
		}
		line.Ev = &ej
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
