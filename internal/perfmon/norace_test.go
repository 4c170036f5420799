//go:build !race

package perfmon

const raceEnabled = false
