package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE preambles, one sample line
// per series, histograms expanded into cumulative `_bucket{le=...}` plus
// `_sum` and `_count`. Safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	bw := &errWriter{w: w}

	// Snapshot preserves registration order within each metric class, and
	// every series of one name lands contiguously, so a single pass per
	// class emits each HELP/TYPE preamble exactly once.
	help := r.helpIndex()

	last := ""
	for _, c := range s.Counters {
		if c.Name != last {
			writePreamble(bw, c.Name, help[c.Name], "counter")
			last = c.Name
		}
		fmt.Fprintf(bw, "%s%s %d\n", c.Name, promLabels(c.Labels, "", 0), c.Value)
	}
	last = ""
	for _, g := range s.Gauges {
		if g.Name != last {
			writePreamble(bw, g.Name, help[g.Name], "gauge")
			last = g.Name
		}
		fmt.Fprintf(bw, "%s%s %d\n", g.Name, promLabels(g.Labels, "", 0), g.Value)
	}
	last = ""
	for _, h := range s.Histograms {
		if h.Name != last {
			writePreamble(bw, h.Name, help[h.Name], "histogram")
			last = h.Name
		}
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", b.LE), b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", math.Inf(1)), h.Count)
		fmt.Fprintf(bw, "%s_sum%s %g\n", h.Name, promLabels(h.Labels, "", 0), h.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", h.Name, promLabels(h.Labels, "", 0), h.Count)
	}
	return bw.err
}

// helpIndex maps metric name to help text for rendering.
func (r *Registry) helpIndex() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make(map[string]string, len(r.entries))
	for _, e := range r.entries {
		idx[e.name] = e.help
	}
	return idx
}

func writePreamble(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// promLabels renders a label set, optionally appending an `le` bound, as
// `{k="v",le="0.005"}`; empty input renders as "".
func promLabels(labels map[string]string, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, k := range sortedNames(labels) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if leKey != "" {
		if !first {
			b.WriteByte(',')
		}
		if math.IsInf(le, 1) {
			b.WriteString(`le="+Inf"`)
		} else {
			fmt.Fprintf(&b, `le="%g"`, le)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// errWriter latches the first write error so the render loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// Handler serves the registry in Prometheus text format; mount it at
// /metrics. Safe on a nil registry (serves an empty body).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// PublishExpvar exposes the registry's live snapshot as one expvar variable
// (rendered as JSON under /debug/vars). Publishing an already-published
// name is a no-op rather than the expvar panic, so repeated construction in
// tests is safe. Safe on a nil registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// MarshalJSON renders the live snapshot; lets a *Registry be dropped
// directly into JSON payloads.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
