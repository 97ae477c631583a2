//go:build !race

package core

// raceDetectorOn mirrors race_test.go for normal builds.
const raceDetectorOn = false
