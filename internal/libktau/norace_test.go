//go:build !race

package libktau

const raceEnabled = false
