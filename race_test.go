//go:build race

package streamdag

// Under the race detector sync.Pool drops a quarter of its puts, so the
// pooled transport allocates per run; allocation gates that budget the
// whole pipeline skip themselves.
func init() { raceDetector = true }
