//go:build race

package perfmon

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so allocation counts through a pool (encoding/json pools
// its encoder state) are not reproducible under it.
const raceEnabled = true
