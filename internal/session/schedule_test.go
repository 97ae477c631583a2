package session

import (
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/qos"
)

func seqDoc() media.Document {
	mk := func(id media.MonomediaID, dur time.Duration) media.Monomedia {
		return media.Monomedia{
			ID: id, Kind: qos.Video, Duration: dur,
			Variants: []media.Variant{media.VideoVariant(
				media.VariantID(id)+"-v1", "server-1", media.MPEG1,
				qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: 480}, dur)},
		}
	}
	return media.Document{
		ID: "seq-1",
		Monomedia: []media.Monomedia{
			mk("intro", 10*time.Second),
			mk("main", 30*time.Second),
			{ID: "audio", Kind: qos.Audio, Duration: 40 * time.Second,
				Variants: []media.Variant{media.AudioVariant("a1", "server-1", media.PCM,
					qos.AudioQoS{Grade: qos.CDQuality}, 40*time.Second)}},
			{ID: "credits", Kind: qos.Text,
				Variants: []media.Variant{media.TextVariant("t1", "server-1", qos.English, 128)}},
		},
		Temporal: []media.TemporalConstraint{
			{A: "intro", B: "main", Relation: media.Sequential},
			{A: "intro", B: "audio", Relation: media.Parallel},
			{A: "main", B: "credits", Relation: media.Overlap, Offset: 25 * time.Second},
		},
	}
}

func TestBuildScheduleSequentialComposition(t *testing.T) {
	s := BuildSchedule(seqDoc())
	if len(s.Streams) != 4 {
		t.Fatalf("streams = %d", len(s.Streams))
	}
	windows := map[media.MonomediaID]StreamWindow{}
	for _, w := range s.Streams {
		windows[w.Monomedia] = w
	}
	check := func(id media.MonomediaID, start, end time.Duration) {
		t.Helper()
		w := windows[id]
		if w.Start != start || w.End != end {
			t.Errorf("%s window = [%v, %v), want [%v, %v)", id, w.Start, w.End, start, end)
		}
	}
	check("intro", 0, 10*time.Second)
	check("main", 10*time.Second, 40*time.Second)
	check("audio", 0, 40*time.Second)
	check("credits", 35*time.Second, 35*time.Second) // discrete: zero-length
	// Schedule duration covers the sequential chain.
	if s.Duration() != 40*time.Second {
		t.Errorf("Duration = %v", s.Duration())
	}
	// Sorted by start time.
	if s.Streams[0].Start > s.Streams[len(s.Streams)-1].Start {
		t.Error("streams not sorted")
	}
}

func TestScheduleOfParallelDoc(t *testing.T) {
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID: "news-1", Title: "T", Duration: time.Minute,
		Servers:        []media.ServerID{"s1"},
		VideoQualities: []qos.VideoQoS{{Color: qos.Color, FrameRate: 25, Resolution: 480}},
		AudioQualities: []qos.AudioQoS{{Grade: qos.CDQuality}},
	})
	s := BuildSchedule(doc)
	if s.Duration() != time.Minute {
		t.Errorf("Duration = %v", s.Duration())
	}
	// Video and audio play in parallel for the whole article.
	if len(s.Streams) != 2 || s.Streams[0].Start != 0 || s.Streams[1].Start != 0 {
		t.Errorf("streams = %+v, want two starting at 0", s.Streams)
	}
}
