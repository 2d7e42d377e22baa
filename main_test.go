package streamdag

import (
	"testing"

	"streamdag/internal/leakcheck"
)

// Every engine, session pump and retry loop the tests start must be gone
// once they end.
func TestMain(m *testing.M) { leakcheck.Main(m) }
