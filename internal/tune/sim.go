package tune

import (
	"context"
	"math"
	"time"

	"repro/internal/serve"
)

// SimEvaluator is a deterministic analytic stand-in for the replay
// evaluator: a closed-form queueing sketch of the ring scheduler under
// the standard quiet/burst duty cycle. It exists for two jobs where
// real timing is the wrong tool:
//
//   - determinism tests: same seed + same trace must yield the same
//     frontier, which real wall-clock measurement cannot promise;
//   - the CI tuner-vs-grid gate: asserting "tuner within 10% of the
//     best grid point" needs a noise-free landscape.
//
// The landscape encodes the real trade-offs the adaptive-flush design
// targets. Sweep dispatch costs a fixed overhead, so capacity rises
// with batch size; greedy flushing half-fills batches during bursts
// (the sweep races the arrivals), costing capacity; a fixed deadline
// fills burst batches but taxes every quiet request with the hold; the
// adaptive policy fills burst batches while keeping quiet latency
// greedy. Burst overflow beyond the queue becomes drops.
type simParams struct {
	perItemNS  float64 // marginal service cost per request
	overheadNS float64 // fixed cost per harvest sweep
	meanRate   float64 // offered mean load, requests/second
	factor     float64 // burst multiplier
	duty       float64 // burst duty cycle (burst / period)
	periodS    float64
}

func defaultSim() simParams {
	return simParams{
		perItemNS:  4000,
		overheadNS: 20000,
		meanRate:   40000,
		factor:     100,
		duty:       0.04,
		periodS:    0.05,
	}
}

// SimEvaluator returns the deterministic analytic evaluator.
func SimEvaluator() Evaluator {
	p := defaultSim()
	return func(_ context.Context, cfg serve.ServingConfig) (Metrics, error) {
		if err := cfg.Validate(); err != nil {
			return Metrics{}, err
		}
		return p.measure(cfg.Resolved()), nil
	}
}

func (p simParams) measure(cfg serve.ServingConfig) Metrics {
	b := float64(cfg.BatchSize)
	s := float64(cfg.Shards)
	q := float64(cfg.QueueDepth)
	policy, bound := cfg.Flush()
	delayNS := float64(bound)
	fixedHold := policy == serve.FlushFixed
	adaptive := policy == serve.FlushAdaptive

	// Rates: quiet-phase base rate such that the duty-cycled mean is
	// meanRate (mirrors serve.BurstOptions.baseRate).
	base := p.meanRate / (1 + p.duty*(p.factor-1))
	burstRate := base * p.factor
	burstDurS := p.duty * p.periodS

	// Effective burst-phase batch: hold policies fill batches; greedy
	// sweeps race the arrivals and harvest half-filled rings.
	burstBatch := b
	if !fixedHold && !adaptive {
		burstBatch = math.Max(1, b/2)
	}
	capPerShard := func(batch float64) float64 {
		return 1e9 * batch / (p.overheadNS + p.perItemNS*batch)
	}
	burstCap := s * capPerShard(burstBatch)

	// Burst backlog: arrivals beyond capacity pile into the queue;
	// beyond the queue they are shed.
	excess := math.Max(0, (burstRate-burstCap)*burstDurS)
	backlog := math.Min(excess, q)
	dropsPerPeriod := math.Max(0, excess-q)
	offeredPerPeriod := base*(p.periodS-burstDurS) + burstRate*burstDurS
	dropRate := dropsPerPeriod / offeredPerPeriod

	// Quiet-phase latency: service plus whatever the policy holds.
	// Quiet arrivals are sparse, so greedy and adaptive sweeps carry
	// one request; a fixed deadline holds each until min(delay, time
	// for the batch to fill at the quiet rate).
	quietLat := p.overheadNS + p.perItemNS
	if fixedHold {
		quietLat += math.Min(delayNS, (b-1)*1e9/base)
	}
	// Burst-phase latency: service for a full sweep plus queueing
	// behind the backlog.
	burstLat := p.overheadNS + p.perItemNS*burstBatch + backlog/burstCap*1e9

	// Most requests arrive inside bursts (factor≫1): the burst phase
	// carries the median, the backlog peak carries the tail.
	burstFrac := burstRate * burstDurS / offeredPerPeriod
	p50 := burstLat
	if burstFrac < 0.5 {
		p50 = quietLat
	}
	p99 := math.Max(quietLat, burstLat*1.25)

	delivered := offeredPerPeriod - dropsPerPeriod
	return Metrics{
		P50:         time.Duration(p50) * time.Nanosecond,
		P99:         time.Duration(p99) * time.Nanosecond,
		Throughput:  delivered / p.periodS,
		OfferedRate: p.meanRate,
		Delivered:   int(delivered),
		Dropped:     int(dropsPerPeriod),
		DropRate:    dropRate,
	}
}
