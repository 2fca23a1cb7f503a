package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Selector names a metric family plus the label subset its series must
// carry to count toward an objective.
type Selector struct {
	Name   string
	Labels map[string]string
}

// Objective is one declarative SLO: a target fraction of good events
// over a sliding window, breached when the error-budget burn rate
// reaches BurnAlert. Exactly one of the two shapes is used:
//
//   - Ratio: Good and Total name counters (good/total over the window).
//   - Latency: Latency names a histogram; an observation is good when
//     it lands at or under Threshold seconds.
type Objective struct {
	Name string

	// Ratio shape.
	Good  Selector
	Total Selector

	// Latency shape.
	Latency   Selector
	Threshold float64

	// Target is the good fraction promised, e.g. 0.999. Window is the
	// sliding evaluation window (default 5m). BurnAlert is the burn
	// rate that flips Breached (default 1: the window is consuming
	// budget faster than steady state allows).
	Target    float64
	Window    time.Duration
	BurnAlert float64

	// Critical objectives degrade /readyz while breached.
	Critical bool
}

// Verdict is one objective's evaluation, the JSON served by GET /slo.
type Verdict struct {
	Name          string  `json:"name"`
	Target        float64 `json:"target"`
	WindowSeconds float64 `json:"window_seconds"`
	Good          float64 `json:"good"`
	Total         float64 `json:"total"`
	Ratio         float64 `json:"ratio"`
	BurnRate      float64 `json:"burn_rate"`
	Breached      bool    `json:"breached"`
	Critical      bool    `json:"critical"`
}

// sloSnap is one cumulative (good, total) reading per objective.
type sloSnap struct {
	at          time.Time
	good, total []float64
}

// SLO evaluates objectives in-process against a Registry. Tick scrapes
// the registry (off every hot path — it is the same render a /metrics
// GET performs), keeps a short history of cumulative counts, and
// derives windowed ratios and burn rates by differencing. Critical
// breaches degrade the attached Health until they clear.
type SLO struct {
	mu         sync.Mutex
	reg        *Registry
	health     *Health
	objectives []Objective
	snaps      []sloSnap
	verdicts   []Verdict
	at         time.Time
	degraded   bool
	maxWindow  time.Duration
}

// maxBurnRate caps the reported burn rate — a zero-budget objective
// with any error would otherwise be +Inf, which JSON cannot encode.
const maxBurnRate = 1e9

// sloReasonPrefix marks /readyz degradations owned by the SLO engine,
// so recovery never clobbers an unrelated not-ready reason (drain).
const sloReasonPrefix = "slo breach: "

// NewSLO builds an engine over reg. health may be nil (no /readyz
// degradation). Objectives get defaults: Window 5m, BurnAlert 1.
func NewSLO(reg *Registry, health *Health, objectives ...Objective) *SLO {
	s := &SLO{reg: reg, health: health}
	for _, o := range objectives {
		if o.Window <= 0 {
			o.Window = 5 * time.Minute
		}
		if o.BurnAlert <= 0 {
			o.BurnAlert = 1
		}
		if o.Window > s.maxWindow {
			s.maxWindow = o.Window
		}
		s.objectives = append(s.objectives, o)
	}
	return s
}

// Tick takes one registry snapshot at now and re-evaluates every
// objective. Call it periodically (a second or two is plenty); it is
// concurrency-safe and never touches instrumented hot paths.
func (s *SLO) Tick(now time.Time) {
	if s == nil {
		return
	}
	scrape := s.reg.Snapshot()
	s.mu.Lock()
	snap := sloSnap{
		at:    now,
		good:  make([]float64, len(s.objectives)),
		total: make([]float64, len(s.objectives)),
	}
	for i, o := range s.objectives {
		snap.good[i], snap.total[i] = cumulativePair(scrape, o)
	}
	s.snaps = append(s.snaps, snap)
	// Keep one snapshot at or before every objective's window start so
	// the delta spans the full window once enough history exists.
	horizon := now.Add(-s.maxWindow)
	for len(s.snaps) >= 2 && !s.snaps[1].at.After(horizon) {
		s.snaps = s.snaps[1:]
	}

	verdicts := make([]Verdict, len(s.objectives))
	var breachedCritical []string
	for i, o := range s.objectives {
		base := s.baseline(now.Add(-o.Window))
		good := snap.good[i] - base.good[i]
		total := snap.total[i] - base.total[i]
		v := Verdict{
			Name:          o.Name,
			Target:        o.Target,
			WindowSeconds: o.Window.Seconds(),
			Good:          good,
			Total:         total,
			Ratio:         1,
			Critical:      o.Critical,
		}
		if total > 0 {
			v.Ratio = good / total
			errRate := 1 - v.Ratio
			if budget := 1 - o.Target; budget > 0 {
				v.BurnRate = errRate / budget
			} else if errRate > 0 {
				v.BurnRate = maxBurnRate
			}
			// JSON has no +Inf; cap so the verdict always encodes.
			if v.BurnRate > maxBurnRate {
				v.BurnRate = maxBurnRate
			}
			v.Breached = v.BurnRate >= o.BurnAlert
		}
		if v.Breached && o.Critical {
			breachedCritical = append(breachedCritical, o.Name)
		}
		verdicts[i] = v
	}
	s.verdicts = verdicts
	s.at = now
	s.applyHealth(breachedCritical)
	s.mu.Unlock()
}

// baseline returns the newest snapshot at or before start, falling
// back to the oldest history we have (a short-lived process evaluates
// over its whole life until the window fills).
func (s *SLO) baseline(start time.Time) sloSnap {
	base := s.snaps[0]
	for _, sn := range s.snaps {
		if sn.at.After(start) {
			break
		}
		base = sn
	}
	return base
}

// applyHealth degrades /readyz on critical breaches and restores it
// once they clear — but only if the not-ready reason is still ours, so
// the engine never resurrects a member that is draining. Caller holds
// s.mu.
func (s *SLO) applyHealth(breached []string) {
	if s.health == nil {
		return
	}
	if len(breached) > 0 {
		s.health.Set(false, sloReasonPrefix+strings.Join(breached, ","))
		s.degraded = true
		return
	}
	if !s.degraded {
		return
	}
	s.degraded = false
	if _, reason := s.health.Ready(); strings.HasPrefix(reason, sloReasonPrefix) {
		s.health.Set(true, "")
	}
}

// cumulativePair extracts an objective's cumulative (good, total) from
// one scrape.
func cumulativePair(sc *Scrape, o Objective) (good, total float64) {
	if o.Latency.Name != "" {
		return histogramPair(sc, o.Latency, o.Threshold)
	}
	return sc.Sum(o.Good.Name, o.Good.Labels), sc.Sum(o.Total.Name, o.Total.Labels)
}

// histogramPair counts observations at or under threshold (good) and
// overall (total) by reading the histogram's cumulative buckets: good
// is the count in the smallest bucket whose bound covers threshold,
// summed across matching series.
func histogramPair(sc *Scrape, sel Selector, threshold float64) (good, total float64) {
	total = sc.Sum(sel.Name+"_count", sel.Labels)
	merged := map[float64]float64{}
	for _, smp := range sc.Samples {
		if !smp.matches(sel.Name+"_bucket", sel.Labels) {
			continue
		}
		merged[leValue(smp.Labels)] += smp.Value
	}
	bestLe := math.Inf(1)
	for le := range merged {
		if le >= threshold && le < bestLe {
			bestLe = le
		}
	}
	if cum, ok := merged[bestLe]; ok {
		good = cum
	} else if len(merged) == 0 {
		good = total // no buckets at all: nothing observed over threshold
	}
	return good, total
}

// Handler serves GET /slo: {"at": ..., "verdicts": [...]}. A nil
// engine serves an empty verdict list.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var at time.Time
		verdicts := []Verdict{}
		if s != nil {
			s.mu.Lock()
			at = s.at
			verdicts = append(verdicts, s.verdicts...)
			s.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			At       time.Time `json:"at"`
			Verdicts []Verdict `json:"verdicts"`
		}{at, verdicts})
	})
}
