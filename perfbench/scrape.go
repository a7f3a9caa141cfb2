package main

import (
	"strconv"
	"strings"
)

// series is one Prometheus text exposition, keyed by the full series
// name including its label set, e.g.
// `osp_stage_duration_seconds_sum{stage="decide"}`.
type series map[string]float64

func parseSeries(text string) series {
	out := make(series)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// sub returns s − base, series by series.
func (s series) sub(base series) series {
	out := make(series, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// add folds o into s.
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// sumPrefix sums every series whose name starts with prefix and whose
// labels contain all of the given label fragments.
func (s series) sumPrefix(prefix string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

// stageMeanUs is the mean of one osp_stage_duration_seconds stage in
// microseconds, and the observation count.
func (s series) stageMeanUs(stage string) (float64, float64) {
	sum := s[`osp_stage_duration_seconds_sum{stage="`+stage+`"}`]
	n := s[`osp_stage_duration_seconds_count{stage="`+stage+`"}`]
	if n == 0 {
		return 0, 0
	}
	return sum / n * 1e6, n
}
