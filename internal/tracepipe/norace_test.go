//go:build !race

package tracepipe

const raceEnabled = false
