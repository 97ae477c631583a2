//go:build race

package protocol

// raceDetectorOn lets the allocation gate stand aside under -race, where
// sync.Pool drops a share of what is put back and pooled frames are
// allocated afresh.
const raceDetectorOn = true
