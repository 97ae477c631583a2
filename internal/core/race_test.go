//go:build race

package core

// raceDetectorOn lets an exact allocation gate stand aside under -race,
// where sync.Pool drops a share of what is put back, so fmt's pooled
// printers are allocated afresh at random.
const raceDetectorOn = true
