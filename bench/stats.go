package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation of a measured phase: when it ended
// (since the phase started) and how long it took.
type sample struct {
	end time.Duration
	lat time.Duration
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the middle two for an
// even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// windowStats is one window's share of a measured phase.
type windowStats struct {
	ops     int
	p50     float64 // op latency, µs
	tail    float64 // op latency at the workload's tail percentile, µs
	opsPerS float64
	cpuMS   float64 // process CPU per op, ms
}

// windowsOf cuts a phase at its marks and summarises each window: the
// ops that ended inside it, the wall time and the CPU time between its
// two marks. A phase too short to have crossed a mark is one window.
// Windows without an op are left out.
func windowsOf(ph phase, tailPct float64) []windowStats {
	marks := ph.marks
	if len(marks) < 2 {
		marks = []mark{{0, 0}, {ph.wall, 0}}
	}
	var out []windowStats
	k := 0
	for w := 1; w < len(marks); w++ {
		lo := k
		for k < len(ph.samples) && ph.samples[k].end <= marks[w].at {
			k++
		}
		part := ph.samples[lo:k]
		span := marks[w].at - marks[w-1].at
		if len(part) == 0 || span <= 0 {
			continue
		}
		lats := make([]float64, len(part))
		for i, s := range part {
			lats[i] = float64(s.lat) / float64(time.Microsecond)
		}
		sort.Float64s(lats)
		out = append(out, windowStats{
			ops:     len(part),
			p50:     percentile(lats, 50),
			tail:    percentile(lats, tailPct),
			opsPerS: float64(len(part)) / span.Seconds(),
			cpuMS:   float64(marks[w].cpu-marks[w-1].cpu) / float64(time.Millisecond) / float64(len(part)),
		})
	}
	return out
}

// reduced holds a phase's reported numbers, per timed op.
type reduced struct {
	p50, tail, opsPerS, cpuMS float64
}

// The sandbox's noise is one-sided and comes in episodes: host contention
// slows a run by up to 40% for seconds to minutes and never speeds one
// up. Measured over ten runs, the median window's p50 spread 25% where
// the best window's spread 6%. So each number is taken from the window
// where it read best — the stretch of the run that was least disturbed —
// and the median window is printed beside it.

// bestWindow takes each quantity from the window where it read best.
func bestWindow(ws []windowStats) reduced {
	r := reduced{p50: math.Inf(1), tail: math.Inf(1), cpuMS: math.Inf(1)}
	for _, w := range ws {
		r.p50, r.tail = math.Min(r.p50, w.p50), math.Min(r.tail, w.tail)
		r.opsPerS, r.cpuMS = math.Max(r.opsPerS, w.opsPerS), math.Min(r.cpuMS, w.cpuMS)
	}
	return r
}

// medianWindow is the contrast printed beside bestWindow.
func medianWindow(ws []windowStats) reduced {
	var a, b, c, d []float64
	for _, w := range ws {
		a, b, c, d = append(a, w.p50), append(b, w.tail), append(c, w.opsPerS), append(d, w.cpuMS)
	}
	return reduced{median(a), median(b), median(c), median(d)}
}

// bestByGroup is the latency reduction for a phase whose ops differ in
// kind (compile_cold's nine shapes): each group's best time over the
// phase, then the geometric mean over all groups as the typical op, and
// over the groups at and beyond the tailPct-th percentile (the heaviest
// three of nine at p75) as the tail; opsPerS is the rate of a round made
// of every group's best op. samples are in op order and groupOf maps an
// op's index to its group.
func bestByGroup(samples []sample, groupOf func(i int) int, tailPct float64) (typical, tail, opsPerS float64) {
	best := map[int]float64{}
	for i, s := range samples {
		g, lat := groupOf(i), float64(s.lat)/float64(time.Microsecond)
		if cur, ok := best[g]; !ok || lat < cur {
			best[g] = lat
		}
	}
	vs := make([]float64, 0, len(best))
	var sum float64
	for _, v := range best {
		vs, sum = append(vs, v), sum+v
	}
	sort.Float64s(vs)
	from := max(int(math.Ceil(tailPct/100*float64(len(vs)))), 1) - 1
	return geomean(vs), geomean(vs[from:]), float64(len(vs)) / (sum / 1e6)
}
