// Logstats: per-window log-level statistics over a replayed burst, with
// the Simulator as its own correctness oracle.
//
// A deterministic burst of log lines streams through parse →
// TumblingWindow → stats.  The run demonstrates the time-aware stage
// library end to end and then checks itself three ways:
//
//  1. The burst runs twice on the Simulator with fresh Builds: virtual
//     time is a pure function of the scheduler round, so the two runs
//     must agree bit-for-bit — identical window boundaries, identical
//     per-window counts.
//  2. The per-window counts must add up to exactly the burst: a window
//     stage may regroup elements but never drop or duplicate one.
//  3. The burst runs on the goroutine runtime (wall clock, one
//     burst-spanning window), whose aggregate counts must match the
//     simulator oracle's.
//
// The process exits non-zero if any check fails, which is what CI's
// examples job runs.
//
//	go run ./examples/logstats
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"streamdag"
)

// logRec is one parsed log line.
type logRec struct {
	Level string
	Msg   string
}

// winStat is one window's aggregate — the example's output type.
type winStat struct {
	Start, End time.Time
	Errors     int
	Warns      int
	Infos      int
	Total      int
}

func (s winStat) String() string {
	return fmt.Sprintf("errors=%d warns=%d infos=%d total=%d", s.Errors, s.Warns, s.Infos, s.Total)
}

// burst synthesizes the replayed log burst: n lines with a seeded level
// mix, so every run replays the identical stream.
func burst(n int) []any {
	rng := rand.New(rand.NewSource(42))
	lines := make([]any, n)
	for i := range lines {
		var level string
		switch r := rng.Intn(10); {
		case r == 0:
			level = "ERROR"
		case r <= 2:
			level = "WARN"
		default:
			level = "INFO"
		}
		lines[i] = fmt.Sprintf("%s request %d handled", level, i)
	}
	return lines
}

// buildFlow compiles parse → window → stats at the given window width.
func buildFlow(width time.Duration, opts ...streamdag.Option) *streamdag.Pipeline {
	pipe, err := streamdag.NewFlow[string, winStat]().Buffer(64).
		Then(streamdag.Map("parse", func(line string) logRec {
			level, msg, _ := strings.Cut(line, " ")
			return logRec{Level: level, Msg: msg}
		})).
		Then(streamdag.TumblingWindow[logRec]("win", width)).
		Then(streamdag.Map("stats", func(w streamdag.Window[logRec]) winStat {
			s := winStat{Start: w.Start, End: w.End, Total: len(w.Items)}
			for _, r := range w.Items {
				switch r.Level {
				case "ERROR":
					s.Errors++
				case "WARN":
					s.Warns++
				default:
					s.Infos++
				}
			}
			return s
		})).
		Compile(append([]streamdag.Option{streamdag.WithWatchdog(30 * time.Second)}, opts...)...)
	if err != nil {
		log.Fatal(err)
	}
	return pipe
}

// run streams the burst through a freshly compiled flow and returns the
// per-window stats in emission order.
func run(width time.Duration, lines []any, opts ...streamdag.Option) []winStat {
	pipe := buildFlow(width, opts...)
	col := &streamdag.Collector{}
	if _, err := pipe.Run(context.Background(), streamdag.SliceSource(lines...), col); err != nil {
		log.Fatal(err)
	}
	ems := col.Emissions()
	out := make([]winStat, len(ems))
	for i, e := range ems {
		out[i] = e.Payload.(winStat)
	}
	return out
}

// render formats a simulator run bit-exactly: window boundaries as
// offsets on the virtual clock's epoch grid plus the counts.
func render(stats []winStat) string {
	epoch := time.Unix(0, 0).UTC()
	var b strings.Builder
	for _, s := range stats {
		fmt.Fprintf(&b, "[%v,%v) %s\n", s.Start.Sub(epoch), s.End.Sub(epoch), s)
	}
	return b.String()
}

// totals folds per-window stats into burst-wide counts.
func totals(stats []winStat) winStat {
	var t winStat
	for _, s := range stats {
		t.Errors += s.Errors
		t.Warns += s.Warns
		t.Infos += s.Infos
		t.Total += s.Total
	}
	return t
}

func main() {
	const n = 2000
	lines := burst(n)

	// Expected mix, straight from the generator.
	var want winStat
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l.(string), "ERROR"):
			want.Errors++
		case strings.HasPrefix(l.(string), "WARN"):
			want.Warns++
		default:
			want.Infos++
		}
		want.Total++
	}

	// Oracle: the burst on the Simulator, 4ms tumbling windows of
	// virtual time.
	sim := streamdag.WithBackend(streamdag.Simulator())
	oracle := run(4*time.Millisecond, lines, sim)
	fmt.Printf("simulator oracle: %d windows over %d lines\n%s", len(oracle), n, render(oracle))

	// Check 1: a second fresh simulator run must be bit-identical.
	if again := run(4*time.Millisecond, lines, sim); render(again) != render(oracle) {
		fmt.Fprintf(os.Stderr, "logstats: simulator runs diverged:\n--- first\n%s--- second\n%s", render(oracle), render(again))
		os.Exit(1)
	}

	// Check 2: the windows must partition the burst exactly.
	if got := totals(oracle); got != (winStat{Errors: want.Errors, Warns: want.Warns, Infos: want.Infos, Total: want.Total}) {
		fmt.Fprintf(os.Stderr, "logstats: oracle totals %v do not match the burst %v\n", got, want)
		os.Exit(1)
	}

	// Check 3: the goroutine runtime (wall clock; a burst-spanning
	// window, so arrival timing cannot split the counts) must agree
	// with the oracle's aggregate.
	wall := totals(run(time.Hour, lines))
	if wall != totals(oracle) {
		fmt.Fprintf(os.Stderr, "logstats: goroutine totals %v diverge from the simulator oracle %v\n", wall, totals(oracle))
		os.Exit(1)
	}
	fmt.Printf("goroutine runtime agrees with the oracle: %s\n", wall)
	fmt.Println("logstats: all window counts match the simulator oracle")
}
