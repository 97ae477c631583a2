//go:build race

package adaptation

// raceDetectorOn lets the scan's allocation gate stand aside under -race,
// which instruments allocation.
const raceDetectorOn = true
