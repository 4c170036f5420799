//go:build race

package libktau

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random and instruments allocation, so allocation counts are not
// reproducible under it.
const raceEnabled = true
