//go:build !race

package adaptation

// raceDetectorOn mirrors race_test.go for normal builds.
const raceDetectorOn = false
