package main

import "testing"

// TestExperimentsSelfCheck runs the experiments whose result the paper
// states (not the timing sweeps), so tier-1 fails when a figure stops
// reproducing.
func TestExperimentsSelfCheck(t *testing.T) {
	for _, check := range checks {
		if err := check(); err != nil {
			t.Error(err)
		}
	}
}
