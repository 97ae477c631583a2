package session

import (
	"sort"
	"time"

	"qosneg/internal/media"
)

// Schedule is the playout plan of a document: one window per monomedia
// component, derived from the document's temporal synchronization
// constraints (Figure 1) — the role the prototype's synchronization
// component [Lam 94] plays during the active phase.
type Schedule struct {
	Streams []StreamWindow
}

// StreamWindow is the presentation interval of one monomedia component,
// relative to the session start. Discrete media occupy a zero-length window
// at their start instant (they are delivered ahead of time and displayed at
// Start).
type StreamWindow struct {
	Monomedia media.MonomediaID
	Start     time.Duration
	End       time.Duration
}

// BuildSchedule resolves a document's temporal constraints into stream
// windows, ordered by start time (ties by id).
func BuildSchedule(doc media.Document) Schedule {
	starts := media.StartTimes(doc)
	s := Schedule{Streams: make([]StreamWindow, 0, len(doc.Monomedia))}
	for _, m := range doc.Monomedia {
		start := starts[m.ID]
		s.Streams = append(s.Streams, StreamWindow{
			Monomedia: m.ID,
			Start:     start,
			End:       start + m.Duration,
		})
	}
	sort.Slice(s.Streams, func(i, j int) bool {
		if s.Streams[i].Start != s.Streams[j].Start {
			return s.Streams[i].Start < s.Streams[j].Start
		}
		return s.Streams[i].Monomedia < s.Streams[j].Monomedia
	})
	return s
}

// Duration is the playout length of the whole schedule: the latest window
// end. Unlike the document's longest component duration, it accounts for
// sequential and overlapped composition.
func (s Schedule) Duration() time.Duration {
	var max time.Duration
	for _, w := range s.Streams {
		if w.End > max {
			max = w.End
		}
	}
	return max
}
