package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"bpar/internal/obs"
)

// samples is one scrape of a registry: series as the exposition prints them
// (`name{label="v"}`) to their value.
type samples map[string]float64

// parsePrometheus reads Prometheus text exposition (version 0.0.4, no
// timestamps — what obs.Registry writes). Comment lines are skipped; a line
// that is not `series value` is an error, because a silently dropped series
// would read as a zero delta.
func parsePrometheus(text string) (samples, error) {
	out := make(samples)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values are quoted and may hold spaces; the value never does.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("scrape line %d: no value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape line %d: %w", n+1, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

func scrape(reg *obs.Registry) (samples, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return parsePrometheus(buf.String())
}

// delta is after − before for one series; a series absent from a scrape
// counts as 0 (per-bucket series register lazily).
func delta(after, before samples, series string) float64 {
	return after[series] - before[series]
}

// meanOf is a histogram's mean over the scrape interval: Δsum ÷ Δcount, from
// the exact running sums and never from the bucket counts (whose scrape-time
// quantiles clamp the overflow bucket). labels is the rendered label set,
// `{stage="compute"}` or "".
func meanOf(after, before samples, family, labels string) float64 {
	n := delta(after, before, family+"_count"+labels)
	if n <= 0 {
		return 0
	}
	return delta(after, before, family+"_sum"+labels) / n
}
