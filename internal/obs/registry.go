package obs

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// Registry names and renders metrics. Registration (Counter, Gauge,
// Histogram) takes a lock and may allocate — it happens at session or
// node setup, not on hot paths; the returned metric pointers are then
// updated lock-free. Registering the same (name, labels) again returns
// the SAME metric, so a session recreated through recovery or promotion
// keeps its cumulative series. A nil *Registry hands out nil metrics
// (no-ops everywhere), which is how the whole layer compiles out when
// no registry is attached.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeFloatGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge, typeFloatGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	help     string
	typ      metricType
	children map[string]*child // keyed by canonLabels
}

type child struct {
	labels map[string]string
	c      *Counter
	g      *Gauge
	gf     *FloatGauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) child(name, help string, typ metricType, bounds []float64, labels []string) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{help: help, typ: typ, children: make(map[string]*child)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	key := canonLabels(m)
	ch := f.children[key]
	if ch == nil {
		ch = &child{labels: m}
		switch typ {
		case typeCounter:
			ch.c = &Counter{}
		case typeGauge:
			ch.g = &Gauge{}
		case typeFloatGauge:
			ch.gf = &FloatGauge{}
		case typeHistogram:
			ch.h = NewHistogram(bounds)
		}
		f.children[key] = ch
	}
	return ch
}

// Counter registers (or finds) a counter. labels are key, value pairs.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeCounter, nil, labels).c
}

// Gauge registers (or finds) a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeGauge, nil, labels).g
}

// FloatGauge registers (or finds) a float-valued gauge (rendered with
// TYPE gauge). Returns nil on a nil registry.
func (r *Registry) FloatGauge(name, help string, labels ...string) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeFloatGauge, nil, labels).gf
}

// Histogram registers (or finds) a histogram over bounds (nil means
// DefLatencyBuckets; bounds are fixed at first registration). Returns
// nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.child(name, help, typeHistogram, bounds, labels).h
}

// Snapshot reads every registered metric into a Scrape, families and
// series in sorted order: the sample set ParseScrape reads back from
// Handler's exposition, without the text in between. The samples own
// their label maps. A nil registry snapshots to an empty Scrape.
func (r *Registry) Snapshot() *Scrape {
	s := &Scrape{Families: map[string]Family{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(r.families)) {
		f := r.families[name]
		s.Families[name] = Family{Help: f.help, Type: f.typ.String()}
		for _, key := range slices.Sorted(maps.Keys(f.children)) {
			ch := f.children[key]
			switch f.typ {
			case typeCounter:
				s.add(name, ch.labels, "", float64(ch.c.Value()))
			case typeGauge:
				s.add(name, ch.labels, "", float64(ch.g.Value()))
			case typeFloatGauge:
				s.add(name, ch.labels, "", ch.gf.Value())
			case typeHistogram:
				cum := int64(0)
				for i := range ch.h.buckets {
					cum += ch.h.buckets[i].Load()
					le := "+Inf"
					if i < len(ch.h.bounds) {
						le = strconv.FormatFloat(ch.h.bounds[i], 'g', -1, 64)
					}
					s.add(name+"_bucket", ch.labels, le, float64(cum))
				}
				s.add(name+"_sum", ch.labels, "", ch.h.Sum())
				s.add(name+"_count", ch.labels, "", float64(ch.h.Count()))
			}
		}
	}
	return s
}

// add appends one sample under a copy of labels, plus an le label when
// le is set.
func (s *Scrape) add(name string, labels map[string]string, le string, v float64) {
	l := make(map[string]string, len(labels)+1)
	maps.Copy(l, labels)
	if le != "" {
		l["le"] = le
	}
	s.Samples = append(s.Samples, Sample{Name: name, Labels: l, Value: v})
}

// Handler returns the GET /metrics handler for this registry. A nil
// registry serves an empty exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WriteText(w)
	})
}
