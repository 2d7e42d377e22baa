package sim

import (
	"testing"

	"streamdag/internal/leakcheck"
)

// Every Engine a test starts must be closed: its scheduler goroutine is
// the one the simulator owns.
func TestMain(m *testing.M) { leakcheck.Main(m) }
