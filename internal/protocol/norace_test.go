//go:build !race

package protocol

// raceDetectorOn mirrors race_test.go for normal builds.
const raceDetectorOn = false
