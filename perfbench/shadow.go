package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/adhoc"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/toca"
	"repro/internal/trace"
)

// layerPrefix maps a strategy name to its package, the prefix of its
// per-layer metrics.
var layerPrefix = map[string]string{"Minim": "core", "CP": "cp", "BBB": "bbb"}

// shadow is the traced run's replay of a run's own event log through
// engine.Step and each strategy's OnDelta, timed call by call.
type shadow struct {
	net     *adhoc.Network
	names   []string
	assigns map[string]toca.Assignment
}

// conflictSamples is how many adhoc.Network.ConflictGraph builds a
// replay times, spread evenly over its events.
const conflictSamples = 5

// replayShadow replays base (untimed) then events (timed), filling the
// engine, adhoc and per-strategy metrics into m. ConflictGraph is timed on
// a clone, so the replay's own network keeps the caches the session's had.
func replayShadow(names []string, base, events []strategy.Event, m map[string]float64) (*shadow, error) {
	net := adhoc.New()
	subs := make([]engine.Subscriber, len(names))
	strats := make([]strategy.Strategy, len(names))
	for i, name := range names {
		st, err := sim.NewSharedStrategy(sim.StrategyName(name), net)
		if err != nil {
			return nil, err
		}
		sub, ok := st.(engine.Subscriber)
		if !ok {
			return nil, fmt.Errorf("strategy %s is not engine-hostable", name)
		}
		strats[i], subs[i] = st, sub
	}
	step := make([]float64, 0, len(events))
	recode := make([][]float64, len(names))
	recodings := make([]int, len(names))
	var maxCode []toca.Color
	var conflict []float64
	apply := func(seq int, ev strategy.Event, timed bool) error {
		t0 := time.Now()
		d, err := engine.Step(net, ev)
		if err != nil {
			return fmt.Errorf("shadow event %d: %w", seq, err)
		}
		d.Seq = seq
		if timed {
			step = append(step, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		maxCode = maxCode[:0]
		for i, sub := range subs {
			t1 := time.Now()
			out, err := sub.OnDelta(d)
			if err != nil {
				return fmt.Errorf("shadow event %d: %s: %w", seq, names[i], err)
			}
			if timed {
				recode[i] = append(recode[i], float64(time.Since(t1).Nanoseconds())/1e3)
				recodings[i] += out.Recodings()
			}
			maxCode = append(maxCode, out.MaxColor)
		}
		return nil
	}
	for i, ev := range base {
		if err := apply(i, ev, false); err != nil {
			return nil, err
		}
	}
	for i, ev := range events {
		if err := apply(len(base)+i, ev, true); err != nil {
			return nil, err
		}
		if i%(len(events)/conflictSamples+1) == 0 {
			c := net.Clone()
			t0 := time.Now()
			c.ConflictGraph()
			conflict = append(conflict, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m["engine.step_us"] = mean(step)
	m["adhoc.conflict_graph_us"] = mean(conflict)
	sh := &shadow{net: net, names: names, assigns: map[string]toca.Assignment{}}
	for i, name := range names {
		p := layerPrefix[name]
		m[p+".recode_us"] = mean(recode[i])
		m[p+".recodings_per_event"] = float64(recodings[i]) / float64(len(events))
		m[p+".max_code"] = float64(maxCode[i])
		sh.assigns[name] = strats[i].Assignment()
	}
	return sh, nil
}

// matches requires the session's final assignments to be bit-identical
// to the replay's.
func (sh *shadow) matches(got map[string]toca.Assignment) error {
	for _, name := range sh.names {
		if !reflect.DeepEqual(got[name], sh.assigns[name]) {
			return fmt.Errorf("%s: final assignment differs from the engine.Step+OnDelta replay", name)
		}
	}
	return nil
}

// measureEncode times trace.AppendEventFrame over events and fills the
// trace.encode_ns and trace.bytes_per_event metrics; it returns the
// encoded log.
func measureEncode(events []strategy.Event, m map[string]float64) ([]byte, error) {
	buf := make([]byte, 0, 64*len(events))
	t0 := time.Now()
	for i, ev := range events {
		var err error
		if buf, err = trace.AppendEventFrame(buf, i+1, ev); err != nil {
			return nil, err
		}
	}
	m["trace.encode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(events))
	m["trace.bytes_per_event"] = float64(len(buf)) / float64(len(events))
	return buf, nil
}

// measureDecode times trace.ReadRecords over an encoded event log and
// fills trace.decode_us_per_kevent. The log holds the run's events in the
// frames the WAL stores; the WAL itself is compacted during the run, so it
// no longer holds them all.
func measureDecode(log []byte, m map[string]float64) error {
	t0 := time.Now()
	recs, _, err := trace.ReadRecords(bytes.NewReader(log))
	el := time.Since(t0)
	if err != nil {
		return err
	}
	m["trace.decode_us_per_kevent"] = float64(el.Nanoseconds()) / float64(len(recs))
	return nil
}

// readWAL concatenates a session's WAL segments in order. Every segment
// starts on a record boundary, so the result decodes as one log.
func readWAL(dir string) ([]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []byte
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// tailEvents counts the event records after the log's last snapshot:
// what crash recovery replays.
func tailEvents(recs []trace.Record) int {
	n := 0
	for _, r := range recs {
		switch {
		case r.Snap != nil:
			n = 0
		case r.Ev != nil:
			n++
		}
	}
	return n
}

// checkView materializes every hosted strategy's assignment from a view
// and checks CA1/CA2 on the network the view's configurations describe.
func checkView(v *serve.View) (map[string]toca.Assignment, error) {
	net := adhoc.New()
	for _, id := range v.Nodes() {
		c, _ := v.Config(id)
		if err := net.Join(id, c); err != nil {
			return nil, err
		}
	}
	assigns := make(map[string]toca.Assignment)
	for _, name := range v.Strategies() {
		a, _ := v.Assignment(name)
		if vs := toca.Verify(net.Graph(), a); len(vs) > 0 {
			return nil, fmt.Errorf("%s: %d CA1/CA2 violations at seq %d, first %v", name, len(vs), v.Seq(), vs[0])
		}
		assigns[name] = a
	}
	return assigns, nil
}
