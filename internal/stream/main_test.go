package stream

import (
	"testing"

	"streamdag/internal/leakcheck"
)

// An engine's node loops, watchdog and pumps must all be gone once the
// tests end.
func TestMain(m *testing.M) { leakcheck.Main(m) }
