package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a benchmark call into a
// layer, or an interval between two stage timestamps the program's own
// trace rings recorded. Spans of one event share its sequence number;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	Seq     int64  `json:"seq"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
	Parent  int    `json:"parent"`
}

// spanLog keeps the traced run's spans in memory; write dumps them once
// the run ends. A nil log records nothing, which is how untraced runs
// stay free of span bookkeeping.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{} }

// add records a span and returns its index for children to reference.
func (l *spanLog) add(name string, seq, start, end int64, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Seq: seq, StartNs: start, EndNs: end, Parent: parent})
	return len(l.spans) - 1
}

// setTimes fills in a span whose interval was not known when it was
// added (a parent recorded before its children).
func (l *spanLog) setTimes(i int, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].StartNs, l.spans[i].EndNs = start, end
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations returns the duration of every span with the given name, in
// the given unit.
func (l *spanLog) durations(name string, unit time.Duration) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/float64(unit))
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part its direct children cover (children are assumed not to overlap
// one another), in the given unit.
func (l *spanLog) selfTimes(name string, unit time.Duration) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := make(map[int]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var out []float64
	for i, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs-covered[i])/float64(unit))
		}
	}
	return out
}

// gapPct is attribution.gap_pct: how much of the root span's median the
// medians of the named blocking layers leave unexplained, in percent.
func (l *spanLog) gapPct(root string, layers ...string) float64 {
	total := median(l.durations(root, time.Microsecond))
	sum := 0.0
	for _, name := range layers {
		if d := l.selfTimes(name, time.Microsecond); len(d) > 0 {
			sum += median(d)
		}
	}
	return 100 * (total - sum) / total
}

func (l *spanLog) write(path, workload string, seed uint64, fingerprint string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload    string `json:"workload"`
		Seed        uint64 `json:"seed"`
		Fingerprint string `json:"fingerprint"`
		Spans       []span `json:"spans"`
	}{workload, seed, fingerprint, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
