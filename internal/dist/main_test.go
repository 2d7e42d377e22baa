package dist

import (
	"testing"

	"streamdag/internal/leakcheck"
)

// Engines, links, frame readers and session pumps must all be gone once
// the tests end.
func TestMain(m *testing.M) { leakcheck.Main(m) }
