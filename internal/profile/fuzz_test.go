package profile

import (
	"testing"
)

// FuzzCurveEval checks that piecewise-linear evaluation never escapes the
// anchor envelope and never panics, for arbitrary anchors and query points.
func FuzzCurveEval(f *testing.F) {
	f.Add(1, int64(10), 25, int64(90), 60, int64(100), 30)
	f.Add(0, int64(0), 0, int64(0), 0, int64(0), 0)
	f.Add(-10, int64(-5), 10, int64(50), 20, int64(5), 15)
	f.Fuzz(func(t *testing.T, x1 int, y1 int64, x2 int, y2 int64, x3 int, y3 int64, q int) {
		c := NewCurve(
			Point{X: x1, Y: float64(y1) / 10},
			Point{X: x2, Y: float64(y2) / 10},
			Point{X: x3, Y: float64(y3) / 10},
		)
		got := c.Eval(q)
		ps := c.Points()
		lo, hi := ps[0].Y, ps[0].Y
		for _, p := range ps {
			if p.Y < lo {
				lo = p.Y
			}
			if p.Y > hi {
				hi = p.Y
			}
		}
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("Eval(%d) = %g outside [%g, %g] for %+v", q, got, lo, hi, ps)
		}
	})
}
