package main

import (
	"context"
	"fmt"

	"streamdag"
)

const oracleInputs = 20_000

// oracleCheck streams the same inputs through the deterministic
// simulator and through the workload's own backend and requires
// bit-identical per-edge data and dummy counts and an identical sink
// (seq, payload) sequence.  One operation per session and per emission
// the simulator produced.
func oracleCheck(w *spec, seed uint64, n int) (attempted, failed int64, why string, err error) {
	sim, err := start(w, &buildEnv{seed: seed, backend: streamdag.Simulator()})
	if err != nil {
		return 0, 0, "", err
	}
	defer sim.eng.Close()
	own, err := start(w, &buildEnv{seed: seed})
	if err != nil {
		return 0, 0, "", err
	}
	defer own.eng.Close()

	per := n
	if w.sessionLen > 0 {
		per = w.sessionLen
	}
	for base := 0; base < n; base += per {
		k := per
		if base+k > n {
			k = n - base
		}
		want, wantStats, werr := collect(sim, base, k)
		if werr != nil {
			return attempted, failed, "", fmt.Errorf("%s: simulator oracle: %w", w.name, werr)
		}
		got, gotStats, gerr := collect(own, base, k)
		attempted += int64(len(want)) + 1
		if gerr != nil {
			failed += int64(len(want)) + 1
			why = "session: " + gerr.Error()
			continue
		}
		bad := int64(0)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				bad++
			}
		}
		if extra := int64(len(got) - len(want)); extra > 0 {
			bad += extra
		}
		if bad > int64(len(want)) {
			bad = int64(len(want))
		}
		if bad > 0 {
			failed += bad
			why = fmt.Sprintf("%d sink emissions differ from the simulator's", bad)
		}
		if !sameCounts(wantStats.Data, gotStats.Data) || !sameCounts(wantStats.Dummies, gotStats.Dummies) {
			failed++
			why = "per-edge data/dummy counts differ from the simulator's"
		}
	}
	return attempted, failed, why, nil
}

// collect streams inputs base..base+n−1 through one session and returns
// every emission.
func collect(in *instance, base, n int) ([]streamdag.Emission, *streamdag.RunStats, error) {
	src := &seqSource{seed: in.seed, base: uint64(base), n: uint64(n)}
	var sink streamdag.Collector
	ses, err := in.eng.Open(context.Background(), src, &sink)
	if err != nil {
		return nil, nil, err
	}
	stats, err := ses.Wait()
	if err != nil {
		return nil, nil, err
	}
	return sink.Emissions(), stats, nil
}

func sameCounts(a, b map[streamdag.EdgeID]int64) bool {
	for e, v := range a {
		if b[e] != v {
			return false
		}
	}
	for e, v := range b {
		if a[e] != v {
			return false
		}
	}
	return true
}
