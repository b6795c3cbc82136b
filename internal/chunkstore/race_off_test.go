//go:build !race

package chunkstore

const raceDetector = false
