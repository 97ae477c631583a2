package telemetry

import (
	"sync"
	"time"
)

// Step identifies a phase of the QoS negotiation procedure (the six steps
// of the paper's §4) or one of the failure-handling paths layered on top.
type Step uint8

const (
	// StepLocalNegotiation is step 1: the local negotiation between the
	// application profile and the client machine's capabilities.
	StepLocalNegotiation Step = iota + 1
	// StepCompatibilityCheck is step 2: checking server offers against the
	// locally negotiated QoS envelope.
	StepCompatibilityCheck
	// StepClassification is steps 3 and 4: gathering the classification
	// parameters and classifying (ranking) the offers. The fused top-K
	// pipeline performs steps 2–4 in one pass; it emits a single
	// StepClassification span covering all three.
	StepClassification
	// StepCommitment is step 5: resource commitment at servers and network.
	StepCommitment
	// StepConfirmation is step 6: the user's confirmation of the reserved
	// configuration within the choice period.
	StepConfirmation
	// StepSkipDead marks an offer skipped because its server is known dead
	// in the current run.
	StepSkipDead
	// StepQuarantine marks a server entering breaker quarantine.
	StepQuarantine
	// StepRedial marks a protocol client re-establishing its connection.
	StepRedial
	// StepAdaptation marks a renegotiation triggered by observed
	// degradation (the paper's adaptation phase).
	StepAdaptation
)

var stepNames = [...]string{
	StepLocalNegotiation:   "local-negotiation",
	StepCompatibilityCheck: "compatibility-check",
	StepClassification:     "classification",
	StepCommitment:         "commitment",
	StepConfirmation:       "confirmation",
	StepSkipDead:           "skip-dead",
	StepQuarantine:         "quarantine",
	StepRedial:             "redial",
	StepAdaptation:         "adaptation",
}

// String returns the canonical span name; allocation-free.
func (s Step) String() string {
	if int(s) < len(stepNames) && stepNames[s] != "" {
		return stepNames[s]
	}
	return "unknown"
}

// Event is one structured span event. Fields beyond Step are optional;
// rendering (String) is deferred until a consumer actually wants text, so
// emitting an event to a Ring costs no formatting.
type Event struct {
	// Step is the negotiation phase or failure path this event belongs to.
	Step Step
	// Offer is the monomedia/offer key concerned, when any.
	Offer string
	// Server is the media server concerned, when any.
	Server string
	// Status carries an outcome word (e.g. a NegotiationStatus or failure
	// cause name), when any.
	Status string
	// Detail is free-form extra context; producers must only build it when
	// telemetry is enabled.
	Detail string
	// Elapsed is the span duration for timed steps, 0 for point events.
	Elapsed time.Duration
}

// String renders the event for logs; this is the lazy part — only called
// by text consumers, never on the recording path.
func (e Event) String() string {
	s := e.Step.String()
	if e.Offer != "" {
		s += " offer=" + e.Offer
	}
	if e.Server != "" {
		s += " server=" + e.Server
	}
	if e.Status != "" {
		s += " status=" + e.Status
	}
	if e.Elapsed != 0 {
		s += " elapsed=" + e.Elapsed.String()
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer consumes span events. Implementations must be safe for concurrent
// use; Trace must not retain references into the event beyond the call.
type Tracer interface {
	Trace(Event)
}

// LogTracer adapts a printf-style logger into a Tracer.
func LogTracer(logf func(format string, args ...any)) Tracer {
	return logTracer{logf}
}

type logTracer struct {
	logf func(format string, args ...any)
}

func (l logTracer) Trace(e Event) { l.logf("trace: %s", e.String()) }

// Ring is a fixed-capacity circular buffer of recent events, the live
// negotiation-trace surface served by qosnegd's debug endpoint. The zero
// value and nil are inert.
type Ring struct {
	mu     sync.Mutex
	events []Event
	next   int
	filled bool
}

// NewRing returns a ring retaining the last n events (min 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{events: make([]Event, n)}
}

// Trace records one event. Safe on a nil or zero-value ring.
func (r *Ring) Trace(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) > 0 {
		r.events[r.next] = e
		r.next++
		if r.next == len(r.events) {
			r.next = 0
			r.filled = true
		}
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Multi fans one event out to several tracers, skipping nils. Returns nil
// when no non-nil tracer remains, so callers can keep a plain nil check as
// their enabled test.
func Multi(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			// A nil *Ring arrives as a non-nil interface; keep it anyway —
			// Ring.Trace is nil-safe — but drop typed nils we can see.
			if r, ok := t.(*Ring); ok && r == nil {
				continue
			}
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Trace(e Event) {
	for _, t := range m {
		t.Trace(e)
	}
}
