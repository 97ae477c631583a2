// Package telemetry is the observability substrate of the reproduction: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms with lock-free hot-path recording, plus labeled
// families for per-server and per-status series) and a typed span tracer
// for the negotiation procedure.
//
// The paper's QoS manager is explicitly a monitoring entity — the
// adaptation procedure of Section 4 acts when the manager *observes* a QoS
// degradation — and the related QoS-management literature grounds
// adaptation decisions in continuously collected measurements. This package
// produces those measurements for the rest of the system: internal/core
// records negotiation outcomes and per-step latencies, internal/protocol
// records per-RPC latencies and errors on both ends of the wire, and
// internal/cmfs / internal/network record reservation admission decisions.
//
// # Disabled telemetry is free
//
// The disabled state is a nil *Registry (the package-level Noop). Every
// constructor on a nil registry returns a nil metric, every method on a nil
// metric or family is an inert no-op, and callers are expected to guard
// any detail *rendering* (fmt.Sprintf and friends) behind an enabled check.
// TestNoopTelemetryZeroAlloc pins the whole disabled surface to zero
// allocations.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Noop is the disabled registry: a typed nil. Constructing metrics from it
// yields nil metrics whose methods cost nothing; use it (or simply a nil
// *Registry) wherever telemetry is optional.
var Noop *Registry

// LatencyBuckets is the default histogram bucketing for operation
// latencies, in seconds: 50µs to 5s in a roughly 1-2.5-5 progression. The
// negotiation procedure on the default testbed lands around a millisecond,
// wire RPCs in the hundreds of microseconds, and fault-injected or
// quarantine-throttled paths in the hundreds of milliseconds, so the range
// covers both ends with headroom.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to decrement). Safe on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram with lock-free recording:
// Observe is a bucket search plus three atomic adds, no locks and no
// allocations.
type Histogram struct {
	// bounds are the inclusive upper bucket bounds in seconds, ascending;
	// an implicit +Inf bucket follows.
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sumNs  atomic.Int64
}

// Observe records one duration. Safe on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// point snapshots the histogram into a HistogramPoint with cumulative
// bucket counts.
func (h *Histogram) point(name string, labels map[string]string) HistogramPoint {
	p := HistogramPoint{
		Name:   name,
		Labels: labels,
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sumNs.Load()).Seconds(),
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		p.Buckets = append(p.Buckets, BucketPoint{LE: b, Count: cum})
	}
	return p
}

// CounterFamily is a set of counters sharing a name, distinguished by one
// label (per-server, per-status, per-RPC-type series).
type CounterFamily struct {
	name, help, label string
	mu                sync.RWMutex
	series            map[string]*Counter
}

// With returns the counter for one label value, creating it on first use.
// Safe on a nil family (returns a nil counter).
func (f *CounterFamily) With(value string) *Counter {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	c := f.series[value]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.series[value]; c != nil {
		return c
	}
	c = &Counter{}
	f.series[value] = c
	return c
}

// GaugeFamily is a set of gauges sharing a name, distinguished by one label.
type GaugeFamily struct {
	name, help, label string
	mu                sync.RWMutex
	series            map[string]*Gauge
}

// With returns the gauge for one label value, creating it on first use.
// Safe on a nil family (returns a nil gauge).
func (f *GaugeFamily) With(value string) *Gauge {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	g := f.series[value]
	f.mu.RUnlock()
	if g != nil {
		return g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g := f.series[value]; g != nil {
		return g
	}
	g = &Gauge{}
	f.series[value] = g
	return g
}

// HistogramFamily is a set of histograms sharing a name and bucketing,
// distinguished by one label (per-step, per-RPC-type latency series).
type HistogramFamily struct {
	name, help, label string
	bounds            []float64
	mu                sync.RWMutex
	series            map[string]*Histogram
}

// With returns the histogram for one label value, creating it on first use.
// Safe on a nil family (returns a nil histogram).
func (f *HistogramFamily) With(value string) *Histogram {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	h := f.series[value]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h := f.series[value]; h != nil {
		return h
	}
	h = newHistogram(f.bounds)
	f.series[value] = h
	return h
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// kind discriminates registry entries.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFamily
	kindGaugeFamily
	kindHistogramFamily
)

// entry is one registered metric or family, in registration order.
type entry struct {
	kind       kind
	name, help string
	c          *Counter
	g          *Gauge
	h          *Histogram
	cf         *CounterFamily
	gf         *GaugeFamily
	hf         *HistogramFamily
}

// Registry holds named metrics and renders them as a Snapshot, Prometheus
// text exposition or expvar. Constructors are idempotent: asking for an
// already-registered name of the same kind returns the existing metric, so
// components may be instrumented repeatedly (e.g. several cmfs servers
// sharing one per-server family). A nil *Registry is the disabled state.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// lookup returns the existing entry for name, or registers a new one built
// by mk. It panics when name is already registered with a different kind —
// a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, k kind, mk func(*entry)) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind", name))
		}
		return e
	}
	e := &entry{kind: k, name: name, help: help}
	mk(e)
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// Counter registers (or returns) a counter. Nil registry returns nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge registers (or returns) a gauge. Nil registry returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, func(e *entry) { e.g = &Gauge{} }).g
}

// Histogram registers (or returns) a histogram with the given bucket upper
// bounds in seconds (ascending; an implicit +Inf bucket is appended). Nil
// registry returns nil.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	validateBuckets(name, buckets)
	return r.lookup(name, help, kindHistogram, func(e *entry) { e.h = newHistogram(buckets) }).h
}

// CounterFamily registers (or returns) a labeled counter family. Nil
// registry returns nil.
func (r *Registry) CounterFamily(name, help, label string) *CounterFamily {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounterFamily, func(e *entry) {
		e.cf = &CounterFamily{name: name, help: help, label: label, series: make(map[string]*Counter)}
	}).cf
}

// GaugeFamily registers (or returns) a labeled gauge family. Nil registry
// returns nil.
func (r *Registry) GaugeFamily(name, help, label string) *GaugeFamily {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGaugeFamily, func(e *entry) {
		e.gf = &GaugeFamily{name: name, help: help, label: label, series: make(map[string]*Gauge)}
	}).gf
}

// HistogramFamily registers (or returns) a labeled histogram family. Nil
// registry returns nil.
func (r *Registry) HistogramFamily(name, help, label string, buckets []float64) *HistogramFamily {
	if r == nil {
		return nil
	}
	validateBuckets(name, buckets)
	return r.lookup(name, help, kindHistogramFamily, func(e *entry) {
		e.hf = &HistogramFamily{name: name, help: help, label: label, bounds: buckets, series: make(map[string]*Histogram)}
	}).hf
}

func validateBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
}

// sortedKeys returns map keys in sorted order for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot is a point-in-time, JSON-serializable copy of every registered
// metric; the wire protocol ships it to qosctl and expvar publishes it
// under /debug/vars.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot. Buckets carry
// cumulative counts for the finite upper bounds; Count additionally covers
// the implicit +Inf bucket.
type HistogramPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	// Sum is the accumulated observed time in seconds.
	Sum     float64       `json:"sum"`
	Buckets []BucketPoint `json:"buckets,omitempty"`
}

// BucketPoint is one cumulative histogram bucket.
type BucketPoint struct {
	// LE is the bucket's inclusive upper bound in seconds.
	LE float64 `json:"le"`
	// Count is the cumulative number of observations ≤ LE.
	Count uint64 `json:"count"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observed latency by
// linear interpolation inside the owning bucket, the standard
// fixed-bucket estimator. Observations beyond the last finite bound clamp
// to that bound. Returns 0 when the histogram is empty.
func (h HistogramPoint) Quantile(q float64) time.Duration {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var prevCum uint64
	prevBound := 0.0
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			span := float64(b.Count - prevCum)
			frac := 1.0
			if span > 0 {
				frac = (rank - float64(prevCum)) / span
			}
			sec := prevBound + (b.LE-prevBound)*frac
			return time.Duration(sec * float64(time.Second))
		}
		prevCum = b.Count
		prevBound = b.LE
	}
	// Rank falls in the +Inf bucket: clamp to the largest finite bound.
	return time.Duration(h.Buckets[len(h.Buckets)-1].LE * float64(time.Second))
}

// Snapshot copies every registered metric. Safe on a nil registry (returns
// an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterPoint{Name: e.name, Value: e.c.Value()})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugePoint{Name: e.name, Value: e.g.Value()})
		case kindHistogram:
			s.Histograms = append(s.Histograms, e.h.point(e.name, nil))
		case kindCounterFamily:
			e.cf.mu.RLock()
			for _, k := range sortedKeys(e.cf.series) {
				s.Counters = append(s.Counters, CounterPoint{
					Name: e.name, Labels: map[string]string{e.cf.label: k}, Value: e.cf.series[k].Value(),
				})
			}
			e.cf.mu.RUnlock()
		case kindGaugeFamily:
			e.gf.mu.RLock()
			for _, k := range sortedKeys(e.gf.series) {
				s.Gauges = append(s.Gauges, GaugePoint{
					Name: e.name, Labels: map[string]string{e.gf.label: k}, Value: e.gf.series[k].Value(),
				})
			}
			e.gf.mu.RUnlock()
		case kindHistogramFamily:
			e.hf.mu.RLock()
			for _, k := range sortedKeys(e.hf.series) {
				s.Histograms = append(s.Histograms, e.hf.series[k].point(e.name, map[string]string{e.hf.label: k}))
			}
			e.hf.mu.RUnlock()
		}
	}
	return s
}

// Find returns the first snapshot histogram with the given name whose
// labels contain labelValue (any key); labelValue "" matches an unlabeled
// series. A rendering convenience for qosctl.
func (s Snapshot) Find(name, labelValue string) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name != name {
			continue
		}
		if labelValue == "" && len(h.Labels) == 0 {
			return h, true
		}
		for _, v := range h.Labels {
			if v == labelValue {
				return h, true
			}
		}
	}
	return HistogramPoint{}, false
}

// Merged sums every snapshot histogram with the given name bucket-wise into
// one unlabeled point: the fleet-wide distribution of a per-shard family.
// Series of one family share their bucket bounds, which is what makes the
// cumulative counts addable. Reports false when no series has the name.
func (s Snapshot) Merged(name string) (HistogramPoint, bool) {
	out := HistogramPoint{Name: name}
	found := false
	for _, h := range s.Histograms {
		if h.Name != name {
			continue
		}
		if !found {
			found = true
			out.Buckets = make([]BucketPoint, len(h.Buckets))
			copy(out.Buckets, h.Buckets)
			out.Count, out.Sum = h.Count, h.Sum
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for i := 0; i < len(out.Buckets) && i < len(h.Buckets); i++ {
			out.Buckets[i].Count += h.Buckets[i].Count
		}
	}
	return out, found
}

// CounterValue sums the snapshot counters with the given name whose labels
// contain labelValue (any key, "" for unlabeled or all series).
func (s Snapshot) CounterValue(name, labelValue string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		if labelValue == "" {
			total += c.Value
			continue
		}
		for _, v := range c.Labels {
			if v == labelValue {
				total += c.Value
			}
		}
	}
	return total
}
