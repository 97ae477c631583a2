package media

import (
	"fmt"

	"qosneg/internal/qos"
)

// This file models the scalable video decoder of the news-on-demand
// prototype (INRS Télécommunications, [Dub 95]): a video coded in the
// scalable format can be decoded at the full frame rate or at reduced
// temporal layers, trading quality for bandwidth without re-coding. The
// offer enumeration expands a scalable variant into one candidate per
// decodable layer, which gives the negotiation procedure (and the
// adaptation procedure) finer-grained configurations to choose from.

// scalableDivisors are the temporal layers a scalable stream exposes:
// full, half and quarter frame rate.
var scalableDivisors = []int{1, 2, 4}

// Scalable reports whether the variant is a scalable video stream, i.e.
// whether ScalableLayers expands it into anything but itself. Step 2 asks
// first, so the common non-scalable variant costs no one-element slice.
func (v Variant) Scalable() bool { return v.Format == ScalableMPEG && v.QoS.Video != nil }

// ScalableLayers expands a variant into its decodable layers. Non-scalable
// variants (any format other than ScalableMPEG, or non-video QoS) return
// just themselves. Layers keep the stored file's identity plus a
// "@Nfps" suffix; their block statistics equal the original's (each layer
// delivers the same frames, fewer of them per second), so the Section 6
// mapping yields proportionally lower bit rates.
func ScalableLayers(v Variant) []Variant {
	if !v.Scalable() {
		return []Variant{v}
	}
	base := *v.QoS.Video
	var out []Variant
	seen := map[int]bool{}
	for _, d := range scalableDivisors {
		rate := base.FrameRate / d
		if rate < qos.FrozenRate || seen[rate] {
			continue
		}
		seen[rate] = true
		layer := v
		layerQoS := base
		layerQoS.FrameRate = rate
		layer.QoS = qos.VideoSetting(layerQoS)
		if d > 1 {
			layer.ID = VariantID(fmt.Sprintf("%s@%dfps", v.ID, rate))
		}
		out = append(out, layer)
	}
	return out
}
